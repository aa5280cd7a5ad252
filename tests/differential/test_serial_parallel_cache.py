"""Differential suite: serial vs parallel vs cached execution.

Every execution mode of the simulator must produce *byte-identical*
results — same model outputs, same per-layer cycles and activity
counters, same layer names — because the parallel runner and the
simulation cache are pure execution strategies, not approximations.
This suite drives Fig. 5 golden workloads through all three paths and
compares them field by field, cross-checking the serial path against
``tests/regression/golden.json`` so a drift in *any* path is caught.
The runner is driven at ``jobs=1`` and ``jobs=2``: ``jobs`` selects
nothing, and these cases hold that it changes no byte either.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine.accelerator import Accelerator
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.parallel import ParallelModelRunner, SimCache, record_model
from repro.tensors.sparse import BitmapMatrix, CsrMatrix

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "regression" / "golden.json")
    .read_text(encoding="utf-8")
)

#: fig5 golden workloads: grouped convs (mobilenets), conv+pool mixes
#: (squeezenet), GEMM-heavy attention (bert), on all three Table IV archs
CASES = [
    (model, arch)
    for model in ("squeezenet", "mobilenets", "bert")
    for arch in ("tpu", "maeri", "sigma")
]


def _workload(model_name):
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    return model, x


def _serial_run(arch, model_name, observability=None):
    model, x = _workload(model_name)
    acc = Accelerator(architecture_config(arch), observability=observability)
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return output, acc.report


def _parallel_run(arch, model_name, jobs, cache=None, observability=None):
    model, x = _workload(model_name)
    runner = ParallelModelRunner(
        architecture_config(arch), jobs=jobs, cache=cache,
        observability=observability,
    )
    return runner.run_model(model, x)


def _layer_fingerprint(report):
    """Every per-layer field the paper's output module reports."""
    return [
        {
            "name": layer.name,
            "kind": layer.kind,
            "cycles": layer.cycles,
            "macs": layer.macs,
            "outputs": layer.outputs,
            "utilization": layer.multiplier_utilization,
            "counters": layer.counters.as_dict(),
        }
        for layer in report.layers
    ]


def _assert_identical(reference, candidate, ref_output, cand_output):
    assert ref_output.tobytes() == cand_output.tobytes()
    assert candidate.total_cycles == reference.total_cycles
    assert _layer_fingerprint(candidate) == _layer_fingerprint(reference)


@pytest.mark.parametrize("model_name,arch", CASES)
def test_serial_parallel_cached_identical(model_name, arch, tmp_path):
    ref_output, ref_report = _serial_run(arch, model_name)
    assert ref_report.total_cycles == \
        GOLDEN["fig5_cycles"][f"{model_name}/{arch}"]

    cache = SimCache(tmp_path / "simcache")
    # cold at jobs=2, warm at jobs=1 (SIGMA, never cached, is timed by both)
    cold = _parallel_run(arch, model_name, 2, cache=cache)
    assert cold.fallbacks == 0
    _assert_identical(ref_report, cold.report, ref_output, cold.output)

    warm = _parallel_run(arch, model_name, 1, cache=SimCache(
        tmp_path / "simcache"
    ))
    _assert_identical(ref_report, warm.report, ref_output, warm.output)

    if arch == "sigma":
        # data-dependent timing: the cache must refuse every layer
        assert cold.cache_hits == warm.cache_hits == 0
        assert not any((tmp_path / "simcache").rglob("*.json"))
    else:
        assert warm.cache_hits == warm.layers
        assert warm.simulated == 0


def _workload_fields(workload):
    def operand_bytes(value):
        if isinstance(value, (BitmapMatrix, CsrMatrix)):
            value = value.to_dense()
        return (str(value.dtype), value.shape, value.tobytes())

    return (
        workload.index, workload.kind, workload.name, workload.params,
        {key: operand_bytes(v) for key, v in workload.operands.items()},
        workload.data_dependent,
    )


@pytest.mark.parametrize("arch", ["tpu", "maeri", "sigma"])
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_recorder_and_serial_run_build_the_same_workloads(
    model_name, arch, monkeypatch
):
    """One front half: what ``record_model`` keeps for the runner is what
    a serial ``simulate()`` hands ``Accelerator.time``, field for field."""
    config = architecture_config(arch)
    model, x = _workload(model_name)
    recorded_output, recorded = record_model(model, x, config)

    timed = []
    real_time = Accelerator.time

    def spying_time(self, workload):
        timed.append(workload)
        return real_time(self, workload)

    monkeypatch.setattr(Accelerator, "time", spying_time)
    acc = Accelerator(config)
    simulate(model, acc)
    output = model(x)
    detach_context(model)

    assert output.tobytes() == recorded_output.tobytes()
    assert len(timed) == len(recorded) == len(acc.report.layers)
    assert [_workload_fields(w) for w in timed] == \
        [_workload_fields(w) for w in recorded]
    assert all(w.data_dependent == (arch == "sigma") for w in recorded)


@pytest.mark.parametrize("arch", ["tpu", "sigma"])
def test_observability_survives_workers(arch):
    """Spans and metrics of each layer's own simulation merge onto the
    model timeline."""
    obs = Observability.create(trace=True, metrics_every=32)
    result = _parallel_run(arch, "squeezenet", 2, observability=obs)

    spans = [e for e in obs.tracer.events if e.name.startswith("layer:")]
    assert len(spans) == result.layers
    # layer windows tile the model timeline in execution order
    expected_start = 0
    for span, layer in zip(spans, result.report.layers):
        assert span.name == f"layer:{layer.name}"
        assert span.start == expected_start
        assert span.end == expected_start + layer.cycles
        expected_start = span.end
    assert expected_start == result.report.total_cycles

    if obs.metrics is not None and len(obs.metrics):
        cycles = [s.cycle for s in obs.metrics.samples]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= result.report.total_cycles

    _, ref_report = _serial_run(arch, "squeezenet")
    assert result.report.total_cycles == ref_report.total_cycles


def test_cache_shared_across_models(tmp_path):
    """One cache directory serves any mix of models on one config."""
    cache = SimCache(tmp_path)
    first = _parallel_run("maeri", "squeezenet", 1, cache=cache)
    again = _parallel_run("maeri", "squeezenet", 1, cache=SimCache(tmp_path))
    assert again.simulated == 0
    assert again.report.total_cycles == first.report.total_cycles
    # a different model only reuses entries for genuinely shared shapes
    other = _parallel_run("maeri", "mobilenets", 1, cache=SimCache(tmp_path))
    _, ref = _serial_run("maeri", "mobilenets")
    assert other.report.total_cycles == ref.total_cycles
