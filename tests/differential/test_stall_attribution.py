"""Differential suite: stall attribution is exact, neutral, engine-agnostic.

The stall ledger makes three falsifiable promises, each pinned here the
same way the vector-equivalence and telemetry-neutrality suites pin
theirs:

1. **conservation** — on every zoo model on every Table IV architecture,
   every component's bucket sums equal its layer's cycles exactly;
2. **engine agnosticism** — the ``cycle`` and ``vector`` engines produce
   *byte-identical* ledgers (both charge through the same shared code
   with the same aggregate inputs, so this is identity by construction,
   verified anyway);
3. **neutrality** — turning attribution on changes nothing but
   ``extra["stalls"]``: cycles, counters and (hence) energy payloads
   stay byte-identical, serial and through the parallel runner.
"""

import json

import pytest

from repro.config import EngineMode
from repro.engine.accelerator import Accelerator
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.observability.stalls import STALL_BUCKETS, validate_ledger
from repro.parallel import ParallelModelRunner, SimCache


ZOO_ALL = [
    (model, arch)
    for model in MODEL_NAMES
    for arch in ("tpu", "maeri", "sigma")
]

ZOO_DENSE = [
    (model, arch) for model in MODEL_NAMES for arch in ("tpu", "maeri")
]

#: the telemetry-neutrality subset: one model per family, all archs
NEUTRALITY_CASES = [
    (model, arch)
    for model in ("squeezenet", "mobilenets", "bert")
    for arch in ("tpu", "maeri", "sigma")
]


def _run(arch, model_name, mode=None, stalls=False):
    config = architecture_config(arch)
    if mode is not None:
        config = config.with_updates(engine_mode=mode)
    obs = Observability.create(stalls=True) if stalls else None
    acc = Accelerator(config, observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return output, acc.report


def _payloads(report):
    return json.dumps(
        [layer.to_payload() for layer in report.layers], sort_keys=True
    )


def _payloads_without_stalls(report):
    rows = []
    for layer in report.layers:
        payload = layer.to_payload()
        payload["extra"].pop("stalls")
        rows.append(payload)
    return json.dumps(rows, sort_keys=True)


# ---------------------------------------------------------------------------
# conservation: every cycle of every component lands in exactly one bucket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_ALL)
def test_zoo_conservation(model_name, arch):
    _, report = _run(arch, model_name, stalls=True)
    assert report.layers
    for layer in report.layers:
        stalls = layer.extra.get("stalls")
        assert stalls, f"{layer.name}: no ledger recorded"
        problems = validate_ledger(stalls, layer.cycles)
        assert not problems, f"{layer.name}: {problems}"
        for buckets in stalls.values():
            assert set(buckets) <= set(STALL_BUCKETS)


# ---------------------------------------------------------------------------
# engine agnosticism: cycle and vector ledgers are byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_DENSE)
def test_zoo_cycle_vector_ledgers_byte_identical(model_name, arch):
    _, ref = _run(arch, model_name, mode=EngineMode.CYCLE, stalls=True)
    _, vec = _run(arch, model_name, mode=EngineMode.VECTOR, stalls=True)
    assert _payloads(vec) == _payloads(ref)


def test_stalls_do_not_force_reference_walk(monkeypatch):
    """Attribution reads no timeline: the GEMM stays one class-by-class
    pass, and the ledger is charged from the same tile classes."""
    calls = {"n": 0}
    from repro.engine.systolic import SystolicEngine

    real = SystolicEngine._account_tile_classes

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile_classes",
        counting,
    )
    _, report = _run("tpu", "squeezenet", mode=EngineMode.VECTOR, stalls=True)
    assert calls["n"] > 0
    assert all(l.extra.get("stalls") for l in report.layers)


# ---------------------------------------------------------------------------
# neutrality: attribution on/off leaves everything else byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", NEUTRALITY_CASES)
def test_stalls_on_off_payloads_byte_identical(model_name, arch):
    off_out, off = _run(arch, model_name, stalls=False)
    on_out, on = _run(arch, model_name, stalls=True)
    assert on_out.tobytes() == off_out.tobytes()
    assert on.total_cycles == off.total_cycles
    assert _payloads_without_stalls(on) == _payloads(off)


def test_parallel_runner_threads_stalls_through_cache(tmp_path):
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    config = architecture_config("tpu")

    def attributed(cache):
        return ParallelModelRunner(
            config, cache=cache,
            observability=Observability.create(stalls=True),
        ).run_model(model, x)

    _, serial = _run("tpu", "squeezenet", stalls=True)
    cold = attributed(SimCache(tmp_path / "cache"))
    assert _payloads(cold.report) == _payloads(serial)
    assert cold.cache_hits == 0 and cold.simulated > 0
    # a new object on the same directory: every hit is read back from
    # disk, so the ledgers survive the JSON round trip byte for byte
    cache = SimCache(tmp_path / "cache")
    warm = attributed(cache)
    assert _payloads(warm.report) == _payloads(serial)
    assert warm.simulated == 0 and warm.cache_hits == warm.layers
    assert warm.report.metadata["parallel_cache_hits"] == \
        warm.report.metadata["parallel_layers"]

    # the lens set is part of the key: a ledger-free run on the same
    # cache replays none of the attributed payloads
    plain = ParallelModelRunner(config, cache=cache).run_model(
        model, x
    )
    assert plain.cache_hits == 0 and plain.simulated > 0
    assert all("stalls" not in l.extra for l in plain.report.layers)
    assert _payloads(plain.report) == _payloads(_run("tpu", "squeezenet")[1])
    assert _payloads_without_stalls(warm.report) == _payloads(plain.report)
