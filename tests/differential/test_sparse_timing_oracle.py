"""Differential suite: the SpMM timing body against the forms it replaced.

A sparse GEMM's fixed host cost used to be NumPy dispatch and per-round
Python objects. Three bodies were rewritten to cost what their round
table costs, and the accelerator stopped building per-round records:

- ``SparseController._time_rounds`` costs the interleaved load / step
  delivery column once and writes its charges into one preallocated
  table instead of stacking and tiling;
- ``DistributionNetwork.schedule_deliveries`` writes its cost columns
  and the pending queue in place;
- ``ReductionNetwork.record_cluster_table`` charges the counters in two
  writes (``waves * (sum - n)`` adders, ``waves * (2 sum - n)`` wires)
  and loops over distinct sizes only for the fabric ledger;
- ``Accelerator`` times a sparse layer with ``time_spmm``, which builds
  no ``SparseRoundStats``; ``run_spmm`` is ``time_spmm`` plus them.

The bodies they replaced are kept below, verbatim up to ``self``, as
oracles. Generated GEMMs (bandwidth 1 included, NS / LFF, with and
without ``streaming=``, fabric lens on and off, a DN queue already
standing) must give the same ``_RoundTimes`` columns (value and dtype),
the same ``DeliverySchedule``, and the same counters, ledgers, trace
events, metrics samples and ``dataclasses.asdict(run_spmm(...))``.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ControllerKind, maeri_like, sigma_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.memory import sparse_controller
from repro.memory.sparse_controller import (
    GEMM_SETUP_CYCLES,
    ROUND_RECONFIG_CYCLES,
    SparseRoundStats,
    SparseRunResult,
    _RoundTimes,
    natural_order_rounds,
)
from repro.noc import distribution
from repro.noc.base import run_sums
from repro.noc.distribution import (
    BenesNetwork,
    DeliverySchedule,
    PointToPointNetwork,
    TreeNetwork,
)
from repro.noc.reduction import (
    AugmentedReductionTree,
    ForwardingAdderNetwork,
    LinearReductionNetwork,
    ReductionTree,
)
from repro.observability import Observability
from repro.observability.fabric import FabricLedger
from repro.opts import largest_filter_first_rounds
from repro.tensors.sparse import from_dense


# ---------------------------------------------------------------------------
# the oracles: the replaced bodies
# ---------------------------------------------------------------------------

def oracle_at_least(value, floor):
    return value + (floor - value) * (value < floor)


def oracle_validate_columns(unique_values, destinations):
    if unique_values.size and min(unique_values.min(), destinations.min()) < 0:
        raise ValueError("delivery sizes must be non-negative")
    if ((destinations > 0) & (unique_values == 0)).any():
        raise ValueError("a delivery with destinations needs values")


def oracle_delivery_cycles_of(dn, unique_values, destinations):
    oracle_validate_columns(unique_values, destinations)
    slots = dn._bandwidth_slots(unique_values, destinations)
    return -(-slots // dn.bandwidth)


def oracle_schedule_deliveries(dn, unique_values, destinations, times, cycles):
    from repro.errors import SimulationError

    oracle_validate_columns(unique_values, destinations)
    if times.size and times.min() < 1:
        raise SimulationError(
            f"a delivery is queued at least once, got times={int(times.min())}"
        )
    if cycles.size and cycles.min() < 0:
        raise ValueError("cannot skip a negative number of cycles")
    queued = dn._bandwidth_slots(unique_values, destinations) * times
    owed = dn._pending_slots + np.cumsum(queued - cycles * dn.bandwidth)
    left = owed - np.minimum(np.minimum.accumulate(owed), 0)
    pending = np.concatenate(([dn._pending_slots], left))
    busy = np.minimum(cycles, -(-(pending[:-1] + queued) // dn.bandwidth))
    costs = [
        dn._switch_traversals(unique_values, destinations) * times,
        dn._wire_traversals(unique_values, destinations) * times,
        unique_values * times,
        busy,
        cycles,
    ]
    if dn.obs.fabric is not None:
        costs += [
            hops * times
            for hops in dn.fabric_level_traversals(unique_values, destinations)
        ]
    return DeliverySchedule(np.stack(costs, axis=1), pending)


def oracle_record_cluster_table(rn, sizes, waves):
    clusters_of = np.bincount(sizes)
    for size in np.flatnonzero(clusters_of).tolist():
        rn.record_cluster_reductions(size, waves * int(clusters_of[size]))


def oracle_time_rounds(ctrl, plan, n_cols, b_mask):
    bandwidth = ctrl.dn.bandwidth
    load = oracle_delivery_cycles_of(ctrl.dn, plan.nnz, plan.nnz)
    drain = ctrl.rn.output_cycles(plan.rows)
    if b_mask is None:
        unique = plan.unique
        slots = np.maximum(unique, 1)
        delivery = oracle_delivery_cycles_of(ctrl.dn, slots, slots)
        step = np.maximum(np.maximum(delivery, drain), 1)
        stream = step * n_cols
        multiplications = plan.nnz * n_cols
        dn_stall = np.where(delivery >= drain, stream - n_cols, 0)
    else:
        bounds = plan.support_offsets.tolist()
        arriving = np.array(
            [
                np.count_nonzero(b_mask[plan.support[lo:hi]], axis=0)
                for lo, hi in zip(bounds, bounds[1:])
            ],
            dtype=np.int64,
        ).reshape(-1, n_cols)
        per_col = np.maximum(-(-arriving // bandwidth), 1)
        costs = np.maximum(per_col, drain[:, None])
        step = costs.max(axis=1)
        stream = costs.sum(axis=1)
        unique = np.rint(arriving.mean(axis=1)).astype(np.int64)
        slots = np.maximum(unique, 1)
        multiplications = run_sums(
            b_mask.sum(axis=1)[plan.columns], plan.column_offsets
        )
        dn_stall = ((costs - 1) * (per_col >= drain[:, None])).sum(axis=1)
    merge_reads = plan.resumed * n_cols
    merge = -(-merge_reads // bandwidth) + -(-merge_reads // ctrl.rn.bandwidth)
    fill = load.copy()
    fill[:1] += ROUND_RECONFIG_CYCLES
    total = fill + stream + merge
    stall = stream - n_cols
    delivered = np.stack((plan.nnz, slots), axis=1).ravel()
    deliveries = oracle_schedule_deliveries(
        ctrl.dn, delivered, delivered,
        np.tile((1, n_cols), len(total)),
        np.stack((load, stream), axis=1).ravel(),
    )
    return _RoundTimes(
        n_cols=n_cols,
        start=GEMM_SETUP_CYCLES + np.cumsum(total) - total,
        fill=fill, load=load, step=step, stream=stream, merge=merge,
        total=total, slots=slots, unique=unique,
        multiplications=multiplications,
        charges=np.stack(
            (
                plan.nnz, plan.nnz + merge_reads + unique * n_cols,
                merge_reads, plan.rows * n_cols, slots * n_cols,
                plan.continued * n_cols, fill, dn_stall, stall - dn_stall,
                merge,
            ),
            axis=1,
        ),
        deliveries=deliveries,
    )


def oracle_run_spmm(
    ctrl, stationary, n_cols, round_builder=None, streaming=None, groups=1
):
    """``run_spmm`` as it was, argument checks included; its RN must
    have been given :func:`oracle_record_cluster_table` (see
    :func:`_oracle_accelerator`)."""
    from repro.errors import MappingError
    from repro.memory.sparse_controller import _as_index

    n_cols = _as_index("n_cols", n_cols)
    if n_cols < 1:
        raise MappingError("the streaming matrix needs at least one column")
    groups = _as_index("groups", groups)
    if groups < 1:
        raise MappingError(f"groups must be at least 1, got groups={groups}")
    if streaming is not None:
        streaming = np.asarray(streaming)
        if streaming.ndim != 2 or streaming.shape[1] != n_cols:
            raise MappingError(
                f"streaming operand shape {streaming.shape} disagrees "
                f"with n_cols={n_cols}"
            )
    stationary = np.asarray(stationary)
    obs = ctrl.obs
    builder = round_builder or natural_order_rounds
    if streaming is None:
        schedule = ctrl._recall_schedule(stationary, groups, builder)
    else:
        schedule = ctrl._schedule(stationary, groups, builder)
    plan = schedule.plan
    m_rows, k_dim = schedule.shape
    dense_macs = m_rows * k_dim * n_cols
    outputs = m_rows * n_cols
    num_rounds = len(plan.nnz)
    times = oracle_time_rounds(
        ctrl, plan, n_cols, None if streaming is None else streaming != 0
    )
    effective_macs = int(times.multiplications.sum())
    tracer = obs.tracer
    base = obs.base
    ledger = obs.stalls
    ctrl.counters.add("ctrl_gemms_run", 1)
    ctrl.counters.add("ctrl_metadata_elements", schedule.nnz)
    if ledger is not None:
        ledger.charge("controller", "weight_fill", GEMM_SETUP_CYCLES)
    if tracer.enabled:
        tracer.span("CTRL:setup", ctrl.name, base, base + GEMM_SETUP_CYCLES)
    ends = (times.start + times.total).tolist()
    batch = 1 if obs.metrics is not None else max(num_rounds, 1)
    for lo in range(0, num_rounds, batch):
        hi = lo + batch
        ctrl._commit_rounds(plan, times, lo, hi)
        ctrl._observe_rounds(plan, times, lo, hi)
        obs.sample(ends[hi - 1])
    cycles = ends[-1] if ends else GEMM_SETUP_CYCLES
    if num_rounds:
        drain = (ctrl.dn.pipeline_latency + 1
                 + ctrl.rn.reduction_latency(plan.max_cluster))
        if tracer.enabled:
            tracer.span(
                "CTRL:pipeline-drain", ctrl.name, base + cycles,
                base + cycles + drain,
            )
        cycles += drain
        if ledger is not None:
            ledger.charge("controller", "pipeline_drain", drain)
    dram_stall = ctrl._account_dram(schedule, n_cols, cycles)
    if tracer.enabled and dram_stall:
        tracer.span(
            "DRAM:stall", ctrl.dram.name, base + cycles,
            base + cycles + dram_stall,
        )
    cycles += dram_stall
    if ledger is not None:
        ledger.charge("controller", "dram_stall", dram_stall)
    obs.sample(cycles)
    num_ms = ctrl.mn.num_ms
    mapped_nnz = int(plan.nnz.sum())
    mapping_util = mapped_nnz / (num_ms * num_rounds) if num_rounds else 0.0
    ms_util = mapped_nnz * n_cols / (num_ms * cycles) if cycles else 0.0
    ctrl._current_cycle += cycles
    ctrl.counters.add("ctrl_cycles", cycles)
    return SparseRunResult(
        cycles=cycles,
        effective_macs=effective_macs,
        dense_macs=dense_macs,
        outputs=outputs,
        rounds=num_rounds,
        mapping_utilization=mapping_util,
        multiplier_utilization=ms_util,
        round_stats=tuple(
            SparseRoundStats(rows, nnz, unique, total, nnz / num_ms)
            for rows, nnz, unique, total in zip(
                plan.rows.tolist(), plan.nnz.tolist(),
                times.unique.tolist(), times.total.tolist(),
            )
        ),
    )


# ---------------------------------------------------------------------------
# generated GEMMs
# ---------------------------------------------------------------------------

CONFIGS = {
    "sigma16-bw1": lambda: sigma_like(num_ms=16, bandwidth=1),
    "sigma16-bw2": lambda: sigma_like(num_ms=16, bandwidth=2),
    "sigma32": lambda: sigma_like(num_ms=32, bandwidth=8),
    "sigma64": lambda: sigma_like(num_ms=64, bandwidth=32),
    "maeri32-sparse-bw1": lambda: maeri_like(num_ms=32, bandwidth=1).with_updates(
        controller=ControllerKind.SPARSE
    ),
    "maeri32-sparse": lambda: maeri_like(num_ms=32, bandwidth=8).with_updates(
        controller=ControllerKind.SPARSE
    ),
}


@st.composite
def spmm_cases(draw):
    """A SpMM with rows wider than the fabric, all-zero rows, NS or LFF
    order, a dense or sparse streaming operand, and a DN queue already
    standing when it starts."""
    rows = draw(st.integers(1, 14))
    k_dim = draw(st.integers(1, 90))
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    stationary = rng.standard_normal((rows, k_dim)).astype(np.float32)
    stationary[rng.random((rows, k_dim)) >= density] = 0.0
    n_cols = draw(st.integers(1, 9))
    streaming = None
    if draw(st.booleans()):
        streaming = rng.standard_normal((k_dim, n_cols)).astype(np.float32)
        streaming[rng.random((k_dim, n_cols)) >= draw(
            st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    return dict(
        config=draw(st.sampled_from(sorted(CONFIGS))),
        stationary=stationary,
        n_cols=n_cols,
        streaming=streaming,
        builder=draw(st.sampled_from([None, largest_filter_first_rounds])),
        fabric=draw(st.booleans()),
        standing=draw(st.integers(0, 6)),
    )


def _oracle_accelerator(acc):
    """``acc`` with its RN charging clusters the replaced way."""
    acc.rn.record_cluster_table = functools.partial(
        oracle_record_cluster_table, acc.rn
    )
    return acc


def _pair(case, layer=True, **lenses):
    """(current, oracle) accelerators on the case's point, each with its
    own lenses and the same standing DN queue — inside an open layer
    unless the accelerator is to open its own."""
    pair = []
    for _ in range(2):
        obs = Observability.create(**lenses) if lenses else None
        acc = Accelerator(CONFIGS[case["config"]](), observability=obs)
        if layer:
            acc.obs.start_layer(0)
        if case["standing"]:
            acc.dn.enqueue(case["standing"], case["standing"])
        pair.append(acc)
    return pair[0], _oracle_accelerator(pair[1])


def _assert_same_column(new, old, name):
    assert isinstance(new, np.ndarray) and isinstance(old, np.ndarray), name
    assert new.dtype == old.dtype, name
    assert new.shape == old.shape, name
    assert np.array_equal(new, old), name


def _assert_same_times(new, old):
    assert type(new.n_cols) is type(old.n_cols) and new.n_cols == old.n_cols
    for name in _RoundTimes._fields:
        if name == "n_cols":
            continue
        if name == "deliveries":
            for part in DeliverySchedule._fields:
                _assert_same_column(
                    getattr(new.deliveries, part), getattr(old.deliveries, part),
                    f"deliveries.{part}",
                )
            continue
        _assert_same_column(getattr(new, name), getattr(old, name), name)


def _state(acc, ledgers=True):
    """Everything a GEMM can have written, lenses included (the ledgers
    only inside a layer the test opened: the accelerator's own layers
    carry theirs in their payloads)."""
    obs = acc.obs
    counters = acc._snapshot().as_dict()
    total = 10 ** 9
    state = {
        "counters": counters,
        "components": [c.counters.as_dict() for c in acc.components],
        "dn": (acc.dn.pending_slots, acc.dn.current_cycle),
        "ctrl": acc.sparse_controller.current_cycle,
        "configured": (acc.mn.cluster_sizes, acc.rn.cluster_sizes),
    }
    if ledgers and obs.stalls is not None:
        state["stalls"] = obs.stalls.finalize(total)
    if ledgers and obs.fabric is not None:
        state["fabric"] = obs.fabric.finalize(counters, total)
    if obs.tracer.enabled:
        state["trace"] = [dataclasses.asdict(e) for e in obs.tracer.events]
    if obs.metrics is not None:
        state["metrics"] = [dataclasses.asdict(s) for s in obs.metrics.samples]
    return state


@given(spmm_cases())
@settings(max_examples=150, deadline=None)
def test_round_times_and_their_commit_equal_the_oracle(case):
    lenses = {"stalls": True, "fabric": case["fabric"]}
    new, old = _pair(case, **lenses)
    csr = from_dense(case["stationary"], "csr")
    build = case["builder"] or natural_order_rounds
    plan = new.sparse_controller._plan_rounds(
        csr, build(csr.row_nnz(), new.mn.num_ms)
    )
    streaming = case["streaming"]
    b_mask = None if streaming is None else streaming != 0
    times = new.sparse_controller._time_rounds(plan, case["n_cols"], b_mask)
    expected = oracle_time_rounds(
        old.sparse_controller, plan, case["n_cols"], b_mask
    )
    _assert_same_times(times, expected)
    assert (times.deliveries.costs.shape[1] > 5) == case["fabric"]
    # costing wrote nothing
    assert _state(new) == _state(old)
    rounds = len(plan.nnz)
    if rounds:
        new.sparse_controller._commit_rounds(plan, times, 0, rounds)
        old.sparse_controller._commit_rounds(plan, expected, 0, rounds)
    assert _state(new) == _state(old)


@pytest.mark.parametrize(
    "lenses",
    [{}, {"trace": True, "stalls": True, "fabric": True}, {"metrics_every": 8},
     {"trace": True, "metrics_every": 16}],
    ids=["bare", "trace-stalls-fabric", "metrics", "trace-metrics"],
)
@given(spmm_cases())
@settings(max_examples=40, deadline=None)
def test_run_spmm_equals_the_oracle(lenses, case):
    if case["fabric"]:
        lenses = dict(lenses, fabric=True)
    new, old = _pair(case, **lenses)
    args = (case["stationary"], case["n_cols"], case["builder"])
    result = new.sparse_controller.run_spmm(*args, streaming=case["streaming"])
    expected = oracle_run_spmm(
        old.sparse_controller, *args, streaming=case["streaming"]
    )
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)
    assert _state(new) == _state(old)
    # time_spmm is run_spmm without round_stats, and leaves the same state
    again, _ = _pair(case, **lenses)
    timing = again.sparse_controller.time_spmm(
        *args, streaming=case["streaming"]
    )
    assert timing._asdict() == {
        key: value for key, value in dataclasses.asdict(expected).items()
        if key != "round_stats"
    }
    assert _state(again) == _state(old)


@given(spmm_cases())
@settings(max_examples=60, deadline=None)
def test_accelerator_layers_equal_the_oracle(case):
    """Whole layers: the accelerator timing through ``time_spmm`` against
    one timing through the replaced ``run_spmm``."""
    lenses = dict(trace=True, stalls=True, fabric=case["fabric"])
    new, old = _pair(case, layer=False, **lenses)
    old_ctrl = old.sparse_controller
    old_ctrl.time_spmm = functools.partial(oracle_run_spmm, old_ctrl)
    b = case["streaming"]
    if b is None:
        b = np.ones((case["stationary"].shape[1], case["n_cols"]), np.float32)
    for acc in (new, old):
        acc.run_spmm(case["stationary"], b, case["builder"], name="g",
                     sparse_streaming=case["streaming"] is not None)
        acc.run_gemm(case["stationary"], b, name="h")
    assert [layer.to_payload() for layer in new.report.layers] == [
        layer.to_payload() for layer in old.report.layers
    ]
    assert _state(new, ledgers=False) == _state(old, ledgers=False)


# ---------------------------------------------------------------------------
# the NoC entry points on their own
# ---------------------------------------------------------------------------

FABRICS = {"tree": TreeNetwork, "benes": BenesNetwork, "p2p": PointToPointNetwork}


@st.composite
def delivery_columns(draw):
    """Delivery sequences, the unique-value and destination columns
    sometimes one array (the controller's case), sometimes two."""
    leaves = draw(st.sampled_from([4, 16, 64]))
    bandwidth = draw(st.sampled_from([1, 2, leaves // 2, leaves]))
    count = draw(st.integers(0, 12))
    unique = np.array(draw(st.lists(st.integers(0, 12), min_size=count,
                                    max_size=count)), dtype=np.int64)
    if draw(st.booleans()):
        destinations = unique
    else:
        destinations = np.array(
            [draw(st.integers(0, 20)) if u else 0 for u in unique.tolist()],
            dtype=np.int64,
        ).reshape(-1)
    times = np.array(draw(st.lists(st.integers(1, 6), min_size=count,
                                   max_size=count)), dtype=np.int64)
    cycles = np.array(draw(st.lists(st.integers(0, 30), min_size=count,
                                    max_size=count)), dtype=np.int64)
    return leaves, bandwidth, draw(st.integers(0, 6)), draw(st.booleans()), (
        unique, destinations, times, cycles,
    )


def _network(fabric, leaves, bandwidth, standing, ledger):
    dn = FABRICS[fabric](leaves, bandwidth)
    dn.obs = Observability(fabric=FabricLedger() if ledger else None)
    if standing:
        dn.enqueue(standing, standing)
    return dn


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@given(delivery_columns())
@settings(max_examples=120, deadline=None)
def test_schedule_deliveries_equals_the_oracle(fabric, case):
    leaves, bandwidth, standing, ledger, columns = case
    new = _network(fabric, leaves, bandwidth, standing, ledger)
    old = _network(fabric, leaves, bandwidth, standing, ledger)
    schedule = new.schedule_deliveries(*columns)
    expected = oracle_schedule_deliveries(old, *columns)
    for part in DeliverySchedule._fields:
        _assert_same_column(getattr(schedule, part), getattr(expected, part), part)
    unique, destinations = columns[:2]
    _assert_same_column(
        new.delivery_cycles_of(unique, destinations),
        oracle_delivery_cycles_of(old, unique, destinations),
        "delivery_cycles_of",
    )


BAD_COLUMNS = [
    ([2, -1], [2, -1], [1, 1], [1, 1]),
    ([2, 3], [2, -1], [1, 1], [1, 1]),
    ([0, 3], [3, 3], [1, 1], [1, 1]),
    ([2, 3], [2, 3], [1, 0], [1, 1]),
    ([2, 3], [2, 3], [1, 1], [1, -1]),
]


@pytest.mark.parametrize("shared", [False, True], ids=["two", "one-array"])
@pytest.mark.parametrize("columns", BAD_COLUMNS)
def test_schedule_deliveries_rejects_what_the_oracle_rejects(columns, shared):
    arrays = [np.array(column, dtype=np.int64) for column in columns]
    if shared and columns[0] == columns[1]:
        arrays[1] = arrays[0]
    new, old = BenesNetwork(16, 4), BenesNetwork(16, 4)
    with pytest.raises(Exception) as expected:
        oracle_schedule_deliveries(old, *arrays)
    with pytest.raises(type(expected.value), match=str(expected.value)):
        new.schedule_deliveries(*arrays)
    assert new.counters.as_dict() == {} and new.pending_slots == 0


@given(
    st.one_of(st.integers(-40, 40), st.lists(st.integers(-40, 40), max_size=8)),
    st.integers(0, 3),
)
def test_at_least_equals_its_arithmetic_form(value, floor):
    if isinstance(value, list):
        column = np.array(value, dtype=np.int64)
        _assert_same_column(
            distribution._at_least(column, floor),
            oracle_at_least(column, floor), "column",
        )
        return
    lifted = distribution._at_least(value, floor)
    assert type(lifted) is int and lifted == oracle_at_least(value, floor)
    # a NumPy integer stays one, as under the arithmetic form
    scalar = np.int64(value)
    lifted = distribution._at_least(scalar, floor)
    expected = oracle_at_least(scalar, floor)
    assert type(lifted) is type(expected) and lifted == expected


REDUCTIONS = {
    "art": lambda: AugmentedReductionTree(32, 8),
    "art-acc": lambda: AugmentedReductionTree(32, 8, accumulate=True),
    "fan": lambda: ForwardingAdderNetwork(64, 16),
    "rt": lambda: ReductionTree(16, 4),
    "linear": lambda: LinearReductionNetwork(16, 4),
}


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
@given(
    # sizes a 16-input RN can hold (0 included: it charges nothing)
    st.lists(st.lists(st.integers(0, 16), max_size=12), min_size=1, max_size=4),
    st.integers(0, 9),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_record_cluster_table_equals_the_oracle(kind, tables, waves, ledger):
    new, old = REDUCTIONS[kind](), REDUCTIONS[kind]()
    for rn in (new, old):
        rn.obs = Observability(fabric=FabricLedger() if ledger else None)
    for sizes in tables:
        column = np.array(sizes, dtype=np.int64)
        new.record_cluster_table(column, waves)
        oracle_record_cluster_table(old, column, waves)
        assert new.counters.as_dict() == old.counters.as_dict()
    if ledger:
        counters = new.counters.as_dict()
        assert new.obs.fabric.finalize(counters, 10 ** 9) == (
            old.obs.fabric.finalize(old.counters.as_dict(), 10 ** 9)
        )


# ---------------------------------------------------------------------------
# nothing on the timing path builds a SparseRoundStats
# ---------------------------------------------------------------------------

class _Forbidden:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the timing path built a SparseRoundStats")


ZOO_POINTS = {
    "sigma64": lambda: sigma_like(num_ms=64, bandwidth=32),
    "maeri64-sparse": lambda: maeri_like(num_ms=64, bandwidth=16).with_updates(
        controller=ControllerKind.SPARSE
    ),
}


def _zoo_payloads(model_name, point, lenses):
    obs = Observability.create(trace=True, stalls=True, fabric=True) \
        if lenses else None
    acc = Accelerator(ZOO_POINTS[point](), observability=obs)
    model = build_model(model_name, seed=0)
    simulate(model, acc)
    try:
        model(model_input(model_name, batch=1, seed=1))
    finally:
        detach_context(model)
    payloads = [layer.to_payload() for layer in acc.report.layers]
    if obs is not None:
        payloads.append([dataclasses.asdict(e) for e in obs.tracer.events])
    return payloads


@pytest.mark.parametrize("lenses", [False, True], ids=["plain", "lenses"])
@pytest.mark.parametrize("point", sorted(ZOO_POINTS))
@pytest.mark.parametrize("model_name", ["squeezenet", "mobilenets"])
def test_zoo_layers_build_no_round_stats(monkeypatch, model_name, point, lenses):
    reference = _zoo_payloads(model_name, point, lenses)
    monkeypatch.setattr(sparse_controller, "SparseRoundStats", _Forbidden)
    assert _zoo_payloads(model_name, point, lenses) == reference
    # and run_spmm, which does build them, now fails loudly
    with pytest.raises(AssertionError, match="built a SparseRoundStats"):
        Accelerator(ZOO_POINTS[point]()).sparse_controller.run_spmm(
            np.ones((4, 8), dtype=np.float32), 2
        )
