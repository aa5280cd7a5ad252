"""Differential suite: ``time_gemm`` vs one counter write per tile.

``SystolicEngine.time_gemm`` never visits the tile grid: it writes the
counter file once per tile class and, under a tracer or a metrics
recorder, hands the schedule's (tile row x n-axis class) runs to
``Observability.sample_runs``, which places their spans and samples in
closed form. The oracle
here is the per-tile walk it replaced, kept in this file only: every
tile of the grid, in execution order, places its span, calls
``_account_tile`` itself and then offers a sample.
"""

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineMode, tpu_like
from repro.config.hardware import Dataflow, DramConfig
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import (
    LAYER_SETUP_CYCLES,
    SystolicEngine,
    SystolicRunResult,
    tile_classes,
)
from repro.observability import Observability

DATAFLOWS = [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]


def _accelerator(dim, dataflow, mode, dram_gbps=512.0, base=0, **lenses):
    obs = Observability.create(**lenses)
    acc = Accelerator(
        tpu_like(dim * dim, dataflow=dataflow).with_updates(
            engine_mode=mode, dram=DramConfig(bandwidth_gbps=dram_gbps)
        ),
        observability=obs,
    )
    acc.dram.new_layer()
    obs.start_layer(base)
    return acc


def _tile_grid(engine, m, k, n):
    """Every tile's ``(tm, tk, tn)`` shape, in execution order.

    Output-stationary tiles partition ``(m, n)``; weight-stationary tiles
    partition the stationary ``(k, n)`` weight matrix while the full ``m``
    activation rows stream through each tile.
    """
    dim = engine.dim
    stationary = engine.weight_stationary
    outer = k if stationary else m
    for lo in range(0, outer, dim):
        extent = min(dim, outer - lo)
        for n_lo in range(0, n, dim):
            tn = min(dim, n - n_lo)
            yield (m, extent, tn) if stationary else (extent, k, tn)


def _per_tile_walk(engine, m, k, n, start=0, repeats=1):
    """``time_gemm`` as the per-tile walk, before the tally."""
    obs, tracer = engine.obs, engine.obs.tracer
    for _ in range(repeats):
        origin = obs.base + start
        cycles, tiles, macs = LAYER_SETUP_CYCLES, 0, 0
        for tm, tk, tn in _tile_grid(engine, m, k, n):
            tile = engine.tile_cycles(tm, tk, tn)
            tracer.span(
                "PE:tile", engine.name, origin + cycles, origin + cycles + tile,
                m=tm, k=tk, n=tn, macs=tm * tk * tn,
            )
            cycles += tile
            tiles += 1
            macs += tm * tk * tn
            engine._account_tile(tm, tk, tn)
            obs.sample(start + cycles)
        stall = engine._account_dram(m, k, n, cycles)
        if stall:
            tracer.span(
                "DRAM:stall", engine.dram.name, origin + cycles,
                origin + cycles + stall,
            )
        cycles += stall
        obs.sample(start + cycles)
        classes = tile_classes(engine, m, k, n)
        if obs.stalls is not None:
            engine._charge_stalls(obs.stalls, classes, stall)
        if obs.fabric is not None:
            engine._charge_fabric(obs.fabric, classes)
        engine._current_cycle += cycles
        engine.counters.add("ctrl_cycles", cycles)
        start += cycles
    return SystolicRunResult(
        cycles, macs, m * n, tiles,
        macs / (engine.config.num_ms * cycles), stall,
    )


def _observed(acc, result, repeats):
    """Everything a GEMM leaves behind, in comparable form."""
    obs = acc.obs
    total = result.cycles * repeats
    counters = {c.name: c.counters.as_dict() for c in acc.components}
    merged = {}
    for component in counters.values():
        merged.update(component)
    return {
        "result": dataclasses.asdict(result),
        "counters": counters,
        "current_cycle": acc.systolic.current_cycle,
        "events": list(obs.tracer.events),
        "metrics": obs.metrics.to_json() if obs.metrics is not None else None,
        "stalls": obs.stalls.finalize(total),
        "fabric": obs.fabric.finalize(merged, total),
    }


SHAPES = dict(
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    n=st.integers(1, 70),
    dim=st.sampled_from([2, 4, 8, 16]),
    dataflow=st.sampled_from(DATAFLOWS),
)


@settings(max_examples=200, deadline=None)
@given(**SHAPES)
def test_tile_grid_is_the_tile_classes_as_a_multiset(m, k, n, dim, dataflow):
    engine = _accelerator(dim, dataflow, EngineMode.CYCLE).systolic
    assert collections.Counter(_tile_grid(engine, m, k, n)) == {
        (tm, tk, tn): count
        for tm, tk, tn, count in tile_classes(engine, m, k, n)
    }


@settings(max_examples=200, deadline=None)
@given(
    **SHAPES,
    mode=st.sampled_from(list(EngineMode)),
    repeats=st.sampled_from([1, 3]),
    start=st.integers(0, 1000),
    base=st.integers(0, 1000),
    dram_gbps=st.sampled_from([512.0, 0.5]),
    trace=st.booleans(),
    metrics_every=st.sampled_from([0, 1, 7, 64]),
)
def test_time_gemm_equals_the_per_tile_walk(
    m, k, n, dim, dataflow, mode, repeats, start, base, dram_gbps,
    trace, metrics_every,
):
    """Counter files of engine, GB and DRAM, the summary, both ledgers,
    the trace and every metrics sample — in every engine mode, the walk
    (``cycle``, or any mode under a recorder) and the aggregate alike."""
    lenses = dict(
        trace=trace, metrics_every=metrics_every, stalls=True, fabric=True
    )
    acc = _accelerator(dim, dataflow, mode, dram_gbps, base, **lenses)
    result = acc.systolic.time_gemm(m, k, n, start, repeats)
    oracle = _accelerator(dim, dataflow, mode, dram_gbps, base, **lenses)
    expected = _per_tile_walk(oracle.systolic, m, k, n, start, repeats)
    assert _observed(acc, result, repeats) == _observed(
        oracle, expected, repeats
    )


def test_a_dram_bound_shape_is_among_the_drawn_bandwidths():
    acc = _accelerator(4, Dataflow.OUTPUT_STATIONARY, EngineMode.CYCLE, 0.5)
    assert acc.systolic.time_gemm(3, 40, 70).dram_stall_cycles > 0


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_a_recorder_costs_runs_not_tiles(dataflow, monkeypatch):
    """A wide GEMM on a 4x4 array: thousands of tiles, at most four
    counter writes — with or without a recorder sampling every 64 cycles
    — and under the recorder two counter snapshots (the first tile and
    the closing sample) and O(runs) recorder calls, never one per tile."""
    m, k, n, dim = 64, 24, 4096, 4
    counts = []
    real = SystolicEngine._account_tile

    def counting(self, tm, tk, tn, count=1):
        counts.append(count)
        return real(self, tm, tk, tn, count)

    monkeypatch.setattr(SystolicEngine, "_account_tile", counting)
    engine = _accelerator(dim, dataflow, EngineMode.AUTO).systolic
    result = engine.time_gemm(m, k, n)
    assert result.tiles > 1000
    assert len(counts) <= len(tile_classes(engine, m, k, n)) <= 4
    assert sum(counts) == result.tiles

    del counts[:]
    watched = _accelerator(dim, dataflow, EngineMode.AUTO, metrics_every=64)
    snapshots = []
    snapshot = watched.obs._snapshot

    def counting_snapshot():
        snapshots.append(1)
        return snapshot()

    runs = []
    recorder = watched.obs.metrics
    observe_run = recorder.observe_run

    def counting_run(*args):
        runs.append(args)
        return observe_run(*args)

    watched.obs.bind(counting_snapshot)
    monkeypatch.setattr(recorder, "observe_run", counting_run)
    assert watched.systolic.time_gemm(m, k, n) == result
    assert len(counts) <= 4 and sum(counts) == result.tiles
    assert len(snapshots) == 2
    rows = math.ceil((k if engine.weight_stationary else m) / dim)
    assert len(runs) == rows * len(tile_classes(engine, dim, dim, n))
    assert len(runs) < result.tiles // 100
    assert len(recorder) == result.cycles // 64
