"""Differential suite: a traced grouped GEMM accounts its groups once.

Only a metrics recorder reads the counter file in the middle of a GEMM.
Under a tracer alone ``SystolicEngine.time_gemm`` writes the counters of
all ``repeats`` groups of a grouped convolution in one pass, class by
class, with one ``times=repeats`` DRAM record each way, and then places
each group's events: its ``PE:tile`` span runs, its ``GB:fill`` instant
and its ``DRAM:stall`` span. The oracle is the per-group loop it
replaced, kept in this file only: each group places its span runs and
then writes its own counters, DRAM record (with the instant) and control
cycles where it ended.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tpu_like
from repro.config.hardware import Dataflow, DramConfig
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import (
    LAYER_SETUP_CYCLES,
    SystolicRunResult,
    tile_classes,
)
from repro.observability import Observability

DATAFLOWS = [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]

#: a DRAM fast enough to hide every transfer, and one slow enough that
#: every group of the drawn shapes stalls
DRAM_GBPS = [512.0, 0.5]


def _accelerator(dim, dataflow, dram_gbps, base, ledgers):
    obs = Observability.create(trace=True, stalls=ledgers, fabric=ledgers)
    acc = Accelerator(
        tpu_like(dim * dim, dataflow=dataflow).with_updates(
            dram=DramConfig(bandwidth_gbps=dram_gbps)
        ),
        observability=obs,
    )
    acc.dram.new_layer()
    obs.start_layer(base)
    return acc


def _per_group_loop(engine, m, k, n, start, repeats):
    """``time_gemm`` under a tracer as it was: group by group."""
    obs = engine.obs
    classes = tile_classes(engine, m, k, n)
    cycles = LAYER_SETUP_CYCLES
    tiles = macs = 0
    for tm, tk, tn, count in classes:
        cycles += engine.tile_cycles(tm, tk, tn) * count
        tiles += count
        macs += tm * tk * tn * count
    runs = list(engine._tile_runs(m, k, n))
    for _ in range(repeats):
        obs.sample_runs(start + LAYER_SETUP_CYCLES, runs)
        engine._account_tile_classes(classes)
        dram_stall = engine._account_dram(m, k, n, cycles)
        end = start + cycles
        if dram_stall:
            obs.tracer.span(
                "DRAM:stall", engine.dram.name, obs.base + end,
                obs.base + end + dram_stall,
            )
        obs.sample(end + dram_stall)
        engine.counters.add("ctrl_cycles", cycles + dram_stall)
        start = end + dram_stall
    cycles += dram_stall
    classes = [(tm, tk, tn, count * repeats) for tm, tk, tn, count in classes]
    if obs.stalls is not None:
        engine._charge_stalls(obs.stalls, classes, dram_stall * repeats)
    if obs.fabric is not None:
        engine._charge_fabric(obs.fabric, classes)
    engine._current_cycle += cycles * repeats
    return SystolicRunResult(
        cycles, macs, m * n, tiles,
        macs / (engine.config.num_ms * cycles), dram_stall,
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
        # the wire form keeps span runs as runs; events expands them
        "wire": obs.tracer.to_wire(),
        "events": list(obs.tracer.events),
        "stalls": obs.stalls.finalize(total) if obs.stalls else None,
        "fabric": obs.fabric.finalize(merged, total) if obs.fabric else None,
    }


def _both(m, k, n, repeats, dim, dataflow, dram_gbps, start, base, ledgers):
    acc = _accelerator(dim, dataflow, dram_gbps, base, ledgers)
    result = acc.systolic.time_gemm(m, k, n, start, repeats)
    oracle = _accelerator(dim, dataflow, dram_gbps, base, ledgers)
    expected = _per_group_loop(oracle.systolic, m, k, n, start, repeats)
    return _observed(acc, result, repeats), _observed(oracle, expected, repeats)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    n=st.integers(1, 70),
    repeats=st.integers(1, 9),
    dim=st.sampled_from([2, 4, 8, 16]),
    dataflow=st.sampled_from(DATAFLOWS),
    dram_gbps=st.sampled_from(DRAM_GBPS),
    start=st.integers(0, 1000),
    base=st.integers(0, 1000),
    ledgers=st.booleans(),
)
def test_traced_groups_equal_the_per_group_loop(
    m, k, n, repeats, dim, dataflow, dram_gbps, start, base, ledgers
):
    """Events in order (and their wire form), every component's counters
    (DRAM row hits and misses among them), the summary, the engine clock
    and both ledgers."""
    got, want = _both(
        m, k, n, repeats, dim, dataflow, dram_gbps, start, base, ledgers
    )
    assert got == want


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_a_slow_dram_stalls_every_group(dataflow):
    """The slow draw is not vacuous: each of the groups pays a stall,
    and each carries one ``GB:fill`` instant and one ``DRAM:stall`` span,
    after its own tiles."""
    repeats = 5
    got, want = _both(3, 40, 70, repeats, 4, dataflow, 0.5, 7, 11, True)
    assert got == want
    assert got["result"]["dram_stall_cycles"] > 0
    names = [event.name for event in got["events"]]
    assert names.count("GB:fill") == repeats
    assert names.count("DRAM:stall") == repeats
    # per group: tiles, then the fill, then the stall
    for group in range(repeats):
        fill = [i for i, name in enumerate(names) if name == "GB:fill"][group]
        assert names[fill - 1] == "PE:tile"
        assert names[fill + 1] == "DRAM:stall"
    dram = got["counters"]["dram"]
    assert dram["dram_row_misses"] == 1
    assert dram["dram_row_hits"] == 2 * repeats - 1
