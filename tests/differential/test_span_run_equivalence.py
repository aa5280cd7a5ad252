"""Differential suite: span runs vs one ``Tracer.span`` per tile.

The systolic engine never visits the tile grid to place its ``PE:tile``
spans; it stores one :class:`~repro.observability.tracer.SpanRun` per
(tile row x n-axis class). The oracle here is the loop that used to
place them — one ``tracer.span`` per tile of the grid enumerated by the
tally suite's ``_tile_grid``, the per-tile walk's own enumerator, kept
in the tests only.
"""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineMode, tpu_like
from repro.config.hardware import Dataflow, DramConfig
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import LAYER_SETUP_CYCLES
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.observability import Observability
from repro.observability.tracer import Tracer
from repro.parallel import record_model
from repro.parallel.runner import _simulate_workload
from test_tile_tally_equivalence import _tile_grid


def _engine(dim, dataflow, mode, dram_gbps=512.0, base=0):
    obs = Observability.create(trace=True)
    acc = Accelerator(
        tpu_like(dim * dim, dataflow=dataflow).with_updates(
            engine_mode=mode, dram=DramConfig(bandwidth_gbps=dram_gbps)
        ),
        observability=obs,
    )
    acc.dram.new_layer()
    obs.start_layer(base)
    return acc.systolic, obs.tracer


def _per_tile_spans(engine, m, k, n, start, repeats, group_cycles):
    """The tile loop ``time_gemm`` ran under a tracer before span runs."""
    tracer = Tracer()
    for group in range(repeats):
        origin = engine.obs.base + start + group * group_cycles
        cycles = LAYER_SETUP_CYCLES
        for tm, tk, tn in _tile_grid(engine, m, k, n):
            tile = engine.tile_cycles(tm, tk, tn)
            tracer.span(
                "PE:tile", engine.name, origin + cycles,
                origin + cycles + tile,
                m=tm, k=tk, n=tn, macs=tm * tk * tn,
            )
            cycles += tile
    return tracer.events


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    n=st.integers(1, 70),
    dim=st.sampled_from([2, 4, 8]),
    dataflow=st.sampled_from(
        [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]
    ),
    repeats=st.integers(1, 4),
    start=st.integers(0, 1000),
    base=st.integers(0, 1000),
    dram_gbps=st.sampled_from([512.0, 0.5]),
)
def test_expanded_runs_equal_the_per_tile_span_loop(
    m, k, n, dim, dataflow, repeats, start, base, dram_gbps
):
    engine, tracer = _engine(dim, dataflow, EngineMode.VECTOR, dram_gbps, base)
    result = engine.time_gemm(m, k, n, start, repeats)
    stored = tracer.to_wire()
    assert all("count" in r for r in stored if r["name"] == "PE:tile")

    tiles = [e for e in tracer.events if e.name == "PE:tile"]
    assert tiles == _per_tile_spans(
        engine, m, k, n, start, repeats, result.cycles
    )
    assert len(tiles) == result.tiles * repeats

    # and the whole event list — fills, stalls, group order — is the one
    # every engine mode exports
    walker, walked = _engine(dim, dataflow, EngineMode.CYCLE, dram_gbps, base)
    assert walker.time_gemm(m, k, n, start, repeats) == result
    assert tracer.events == walked.events
    assert tracer.to_chrome() == walked.to_chrome()
    assert tracer.to_jsonl() == walked.to_jsonl()


@pytest.mark.parametrize(
    "dataflow", [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]
)
def test_traced_aggregate_stores_runs_not_tiles(dataflow):
    """A wide GEMM on a 4x4 array: records grow with the tile *rows*."""
    m, k, n, dim = 64, 24, 4096, 4
    engine, tracer = _engine(dim, dataflow, EngineMode.VECTOR)
    result = engine.time_gemm(m, k, n)
    stored = tracer.to_wire()  # does not expand
    rows = math.ceil((k if engine.weight_stationary else m) / dim)
    assert len(stored) <= 2 * rows + 8
    assert result.tiles == rows * (n // dim)
    chrome = tracer.to_chrome()  # neither do the exporters
    assert len(tracer.to_wire()) == len(stored)
    tiles = [e for e in tracer.events if e.name == "PE:tile"]
    assert len(tiles) == result.tiles
    assert tracer.to_chrome() == chrome


def _trace_of(model_name, config, jobs=None):
    obs = Observability.create(trace=True)
    acc = Accelerator(config, observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    if jobs:
        simulate_parallel(model, acc, x, jobs=jobs)
    else:
        simulate(model, acc)
        try:
            model(x)
        finally:
            detach_context(model)
    return acc, obs.tracer


def test_parallel_merge_equals_serial_and_ships_runs():
    """A layer's bundle carries its spans as runs: the runner's merged
    timeline is the serial one and a bundle is smaller than its
    per-tile form."""
    config = tpu_like(16).with_updates(engine_mode=EngineMode.VECTOR)
    serial_acc, serial = _trace_of("mobilenets", config)
    parallel_acc, merged = _trace_of("mobilenets", config, jobs=2)
    assert parallel_acc.report.total_cycles == serial_acc.report.total_cycles
    assert any("count" in record for record in merged.to_wire())
    assert merged.to_chrome() == serial.to_chrome()
    assert merged.events == serial.events

    model = build_model("mobilenets", seed=0)
    x = model_input("mobilenets", batch=1, seed=1)
    _, workloads = record_model(model, x, config)
    grouped = next(
        w for w in workloads
        if w.kind == "conv" and w.params["groups"] > 1
    )
    bundle = _simulate_workload(config, grouped, {"trace": True})
    rebuilt = Tracer()
    rebuilt.extend(bundle["trace"], offset=7)  # a run is rebased by its start
    assert min(e.start for e in rebuilt.events) == 7
    per_tile = [dataclasses.asdict(e) for e in rebuilt.events]
    assert len(bundle["trace"]) < len(per_tile)
    assert len(pickle.dumps(bundle["trace"])) < len(pickle.dumps(per_tile))
