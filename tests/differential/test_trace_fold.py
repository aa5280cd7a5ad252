"""Differential suite: a traced run's fold of repeated layers.

Only the metrics recorder stops a fold. Under a tracer a serial run
still times each distinct layer once: a repeat replays the records its
first twin's timing stored, shifted to its own base, with the layer span
named after the repeat; the model runner gives a deduplicated layer
its source's records, renamed and rebased. The oracle is one
accelerator timing every workload through direct
:meth:`Accelerator.time` calls, which never fold: the exported trace
text (Chrome JSON and JSONL) and every payload must be byte-equal to it,
serially and through ``simulate_parallel`` at ``jobs=1`` and ``jobs=2``
without a cache, and every path must give each layer the same host-time
mode. ``jobs=2`` must start no process.
"""

import json
import multiprocessing

import pytest

from repro.config import maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.observability import Observability
from repro.parallel import SimCache, record_model
from repro.parallel.runner import _shared_bundle

#: the dense hardware points of the benchmark's sweeps
DENSE_PRESETS = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "tpu256": lambda: tpu_like(num_pes=256),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
    "maeri256": lambda: maeri_like(num_ms=256, bandwidth=128),
}

#: the tracer alone, and with the ledgers that ride in the payload
LENS_SETS = {
    "trace": {"trace": True},
    "trace+ledgers": {"trace": True, "stalls": True, "fabric": True},
}


def _exported(acc):
    """What a traced run leaves: the trace text and the payload bytes."""
    return (
        acc.obs.tracer.to_chrome(),
        acc.obs.tracer.to_jsonl(),
        [json.dumps(layer.to_payload(), sort_keys=True)
         for layer in acc.report.layers],
    )


def _modes(acc):
    return [(row.name, row.mode) for row in acc.obs.host_time]


@pytest.mark.parametrize("lenses", sorted(LENS_SETS))
@pytest.mark.parametrize("preset", sorted(DENSE_PRESETS))
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_a_folded_trace_is_every_layer_timed(model_name, preset, lenses):
    config = DENSE_PRESETS[preset]()
    lens_args = LENS_SETS[lenses]
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)

    serial = Accelerator(config, observability=Observability.create(**lens_args))
    simulate(model, serial)
    try:
        model(x)
    finally:
        detach_context(model)

    _, workloads = record_model(model, x, config)
    every = Accelerator(config, observability=Observability.create(**lens_args))
    for workload in workloads:
        every.time(workload)
    assert {mode for _, mode in _modes(every)} == {"simulated"}

    expected = _exported(every)
    assert _exported(serial) == expected
    modes = _modes(serial)
    if model_name == "bert":
        assert ("deduplicated" in {mode for _, mode in modes}), modes

    for jobs in (1, 2):
        parallel = Accelerator(
            config, observability=Observability.create(**lens_args)
        )
        simulate_parallel(model, parallel, x, jobs=jobs)
        assert multiprocessing.active_children() == []
        assert _exported(parallel) == expected, jobs
        assert _modes(parallel) == modes, jobs


def test_a_cold_cache_run_traces_every_deduplicated_layer(tmp_path):
    """With a cache, a deduplicated layer carries its source's full
    trace; only a cache hit gets the one-span ``cached`` stub."""
    config = DENSE_PRESETS["tpu16"]()
    model = build_model("bert", seed=0)
    x = model_input("bert", batch=1, seed=1)
    _, workloads = record_model(model, x, config)
    every = Accelerator(config, observability=Observability.create(trace=True))
    for workload in workloads:
        every.time(workload)

    cache = SimCache(tmp_path)
    cold = Accelerator(config, observability=Observability.create(trace=True))
    result = simulate_parallel(model, cold, x, cache=cache)
    assert result.deduplicated > 0
    assert _exported(cold) == _exported(every)

    warm = Accelerator(config, observability=Observability.create(trace=True))
    assert simulate_parallel(model, warm, x, cache=cache).cache_hits == \
        len(workloads)
    spans = warm.obs.tracer.events
    assert len(spans) == len(workloads)
    assert all(span.args["cached"] for span in spans)


def test_under_metrics_a_cold_cache_run_stubs_each_deduplicated_layer(
    tmp_path,
):
    """The metrics recorder stops the fold: with a cache the runner still
    deduplicates, but a deduplicated layer gets the one-span stub, never
    its source's records (they end in counter samples on the source's
    cycle grid), so every layer keeps one span, named after it, tiling
    the timeline."""
    config = DENSE_PRESETS["tpu16"]()
    model = build_model("bert", seed=0)
    x = model_input("bert", batch=1, seed=1)
    acc = Accelerator(
        config,
        observability=Observability.create(trace=True, metrics_every=64),
    )
    result = simulate_parallel(model, acc, x, cache=SimCache(tmp_path))
    assert result.deduplicated > 0

    spans = [e for e in acc.obs.tracer.events if e.name.startswith("layer:")]
    assert [span.name for span in spans] == [
        f"layer:{layer.name}" for layer in acc.report.layers
    ]
    start = 0
    for span, layer in zip(spans, acc.report.layers):
        assert (span.start, span.end) == (start, start + layer.cycles)
        start = span.end
    assert sum(1 for span in spans if span.args.get("cached")) == \
        result.deduplicated
    # every mirrored counter sample is one the merged series holds
    counters = [e.start for e in acc.obs.tracer.events if e.phase == "C"]
    assert counters
    assert set(counters) <= {s.cycle for s in acc.obs.metrics.samples}


def test_a_source_s_records_are_shared_only_under_the_fold_rule():
    """A worker's records end in its layer span unless the metrics
    recorder mirrors a sample after it; those are never shared."""
    span = {"name": "layer:src", "component": "accelerator", "phase": "X",
            "start": 0, "duration": 9, "depth": 0, "args": {}}
    sample = {"name": "activity", "component": "metrics", "phase": "C",
              "start": 8, "duration": 0, "depth": 0, "args": {"macs": 1.0}}
    source = {"layer": {"cycles": 9}, "trace": [span, sample]}
    assert _shared_bundle(source, "rep", folds=False) == \
        {"layer": source["layer"]}
    shared = _shared_bundle({**source, "trace": [span]}, "rep", folds=True)
    assert shared["trace"] == [{**span, "name": "layer:rep"}]
