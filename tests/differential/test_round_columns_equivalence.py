"""Differential suite: SpMM rounds as columns vs the calls they replaced.

``SparseController.run_spmm`` times, checks and charges a GEMM's whole
round table at once. What that rests on is held here to its slow form:

- ``DistributionNetwork.schedule_deliveries`` / ``record_scheduled``
  against the same sequence of scalar ``enqueue`` / ``skip_cycles``
  calls — counters, fabric levels, the clock and the pending queue,
  whose carry-over from one delivery to the next is the one part of a
  round that is not linear;
- ``_commit_rounds(0, R)`` against ``R`` calls ``(i, i + 1)``: the two
  slicings ``run_spmm`` chooses between must be one accounting — and
  both against the interpreting round loop they replaced, kept in this
  file only: one round at a time through the scalar NoC entry points
  (``configure_clusters``, ``record_delivery``, ``enqueue``, ...);
- and which slicing runs: one commit per GEMM unless a metrics recorder
  can read the counter file in between.

(The array-form ART proof is held to the scalar one and to the explicit
embedding in ``test_art_verifier_equivalence.py``.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ControllerKind, maeri_like, sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import SimulationError
from repro.memory.sparse_controller import natural_order_rounds
from repro.noc.distribution import (
    BenesNetwork,
    PointToPointNetwork,
    TreeNetwork,
)
from repro.observability import Observability
from repro.observability.fabric import FabricLedger
from repro.opts import largest_filter_first_rounds
from repro.tensors.sparse import from_dense

FABRICS = {"tree": TreeNetwork, "benes": BenesNetwork, "p2p": PointToPointNetwork}


# ---------------------------------------------------------------------------
# (a) the batched DN entry
# ---------------------------------------------------------------------------

@st.composite
def delivery_sequences(draw):
    """Deliveries whose drain windows are often shorter than the queue
    (bandwidth 1-2, a queue already standing), so slots carry over."""
    leaves = draw(st.sampled_from([4, 16, 64]))
    bandwidth = draw(st.sampled_from([1, 1, 2, leaves // 2, leaves]))
    standing = draw(st.integers(0, 6))
    deliveries = []
    for _ in range(draw(st.integers(0, 10))):
        unique = draw(st.integers(0, 12))
        destinations = draw(st.integers(0, 20)) if unique else 0
        times = draw(st.integers(1, 6))
        window = draw(st.integers(0, 3 * max(1, unique * times // bandwidth)))
        deliveries.append((unique, destinations, times, window))
    return leaves, bandwidth, standing, deliveries


def _network(fabric, leaves, bandwidth, standing):
    dn = FABRICS[fabric](leaves, bandwidth)
    dn.obs = Observability(fabric=FabricLedger())
    if standing:
        dn.enqueue(standing, standing)
    return dn


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@given(delivery_sequences())
@settings(max_examples=150, deadline=None)
def test_batched_deliveries_equal_the_scalar_sequence(fabric, case):
    leaves, bandwidth, standing, deliveries = case
    scalar = _network(fabric, leaves, bandwidth, standing)
    batched = _network(fabric, leaves, bandwidth, standing)
    for unique, destinations, times, window in deliveries:
        scalar.enqueue(unique, destinations, times=times)
        scalar.skip_cycles(window)
    columns = np.array(deliveries, dtype=np.int64).reshape(-1, 4).T
    schedule = batched.schedule_deliveries(*columns)
    assert batched.counters.as_dict().keys() <= {"dn_switch_traversals",
        "dn_wire_traversals", "dn_elements_sent"}  # only the standing queue
    # recorded in two runs: the second starts from the queue the first left
    cut = len(deliveries) // 2
    batched.record_scheduled(schedule, 0, cut)
    batched.record_scheduled(schedule, cut, len(deliveries))

    assert batched.counters.as_dict() == scalar.counters.as_dict()
    assert batched.pending_slots == scalar.pending_slots
    assert batched.current_cycle == scalar.current_cycle
    assert type(batched.pending_slots) is int
    total = 10 ** 9
    assert batched.obs.fabric.finalize(batched.counters.as_dict(), total) == (
        scalar.obs.fabric.finalize(scalar.counters.as_dict(), total)
    )
    if deliveries:
        assert batched.delivery_cycles_of(columns[0], columns[1]).tolist() == [
            scalar.delivery_cycles(unique, destinations)
            for unique, destinations, _t, _w in deliveries
        ]
    # one more scalar step from either state lands in the same place
    for dn in (scalar, batched):
        dn.skip_cycles(1)
    assert batched.pending_slots == scalar.pending_slots
    assert batched.counters.as_dict() == scalar.counters.as_dict()


def test_the_generator_reaches_the_carry_over():
    """Bandwidth 1, windows shorter than the queue: slots carry over."""
    scalar = TreeNetwork(16, 1)
    batched = TreeNetwork(16, 1)
    deliveries = [(3, 3, 2, 2), (1, 1, 1, 4), (5, 5, 1, 1), (2, 2, 3, 20), (4, 4, 1, 1)]
    seen = []
    for unique, destinations, times, window in deliveries:
        scalar.enqueue(unique, destinations, times=times)
        scalar.skip_cycles(window)
        seen.append(scalar.pending_slots)
    assert seen == [4, 1, 5, 0, 3]  # grows, drains dry once, grows again
    schedule = batched.schedule_deliveries(*np.array(deliveries, dtype=np.int64).T)
    assert schedule.pending.tolist() == [0] + seen
    batched.record_scheduled(schedule, 0, len(deliveries))
    assert batched.pending_slots == 3
    assert batched.counters.as_dict() == scalar.counters.as_dict()
    # a schedule is costed from one queue state: replaying it is refused
    with pytest.raises(SimulationError, match="pending slots"):
        batched.record_scheduled(schedule, 0, 1)


@pytest.mark.parametrize(
    "column,value,error",
    [(0, -1, ValueError), (1, -2, ValueError), (3, -1, ValueError)],
)
def test_batched_deliveries_reject_what_the_scalar_calls_reject(column, value, error):
    dn = BenesNetwork(16, 4)
    columns = np.array([[2, 2, 1, 1], [3, 3, 2, 2]], dtype=np.int64).T.copy()
    columns[column, 1] = value
    with pytest.raises(error):
        dn.schedule_deliveries(*columns)
    with pytest.raises(ValueError, match="needs values"):
        dn.schedule_deliveries(*np.array([[0, 3, 1, 1]], dtype=np.int64).T)
    with pytest.raises(SimulationError, match="at least once"):
        dn.schedule_deliveries(*np.array([[2, 2, 0, 1]], dtype=np.int64).T)
    assert dn.counters.as_dict() == {} and dn.pending_slots == 0


# ---------------------------------------------------------------------------
# (c) one commit over all rounds == one commit per round
# ---------------------------------------------------------------------------

CONFIGS = {
    "sigma16-bw1": lambda: sigma_like(num_ms=16, bandwidth=1),
    "sigma16": lambda: sigma_like(num_ms=16, bandwidth=8),
    "sigma64": lambda: sigma_like(num_ms=64, bandwidth=32),
    "maeri32-sparse": lambda: maeri_like(num_ms=32, bandwidth=8).with_updates(
        controller=ControllerKind.SPARSE
    ),
}


@st.composite
def spmm_cases(draw):
    """Generated SpMMs: rows wider than the fabric (folded), all-zero
    rows, natural or LFF order, dense or sparse streaming operand."""
    rows = draw(st.integers(1, 14))
    k_dim = draw(st.integers(1, 90))
    density = draw(st.sampled_from([0.1, 0.4, 0.8, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    stationary = rng.standard_normal((rows, k_dim)).astype(np.float32)
    stationary[rng.random((rows, k_dim)) >= density] = 0.0
    n_cols = draw(st.integers(1, 9))
    streaming = None
    if draw(st.booleans()):
        streaming = rng.standard_normal((k_dim, n_cols)).astype(np.float32)
        streaming[rng.random((k_dim, n_cols)) >= 0.5] = 0.0
    builder = draw(st.sampled_from([None, largest_filter_first_rounds]))
    return stationary, n_cols, streaming, builder


def _interpret_round(ctrl, plan, index, n_cols, b_mask):
    """One round of the loop ``_commit_rounds`` replaced: its cycles,
    with every counter, ledger and fabric charge made on the way."""
    dn, mn, rn, gb = ctrl.dn, ctrl.mn, ctrl.rn, ctrl.gb
    charge = ctrl.obs.stalls.charge
    sizes = plan.cluster_sizes(index).tolist()
    rows, nnz = len(sizes), int(plan.nnz[index])
    unique, resumed = int(plan.unique[index]), int(plan.resumed[index])
    reconfig = 1 if index == 0 else 0
    mn.configure_clusters(sizes)
    rn.configure_clusters(sizes)
    load = dn.record_delivery(nnz, nnz)
    gb.record_reads(nnz)
    ctrl.counters.add("ctrl_stationary_loads", nnz)
    drain = rn.output_cycles(rows)
    charge("controller", "weight_fill", reconfig + load)
    if b_mask is not None:
        per_col = np.maximum(np.ceil(
            b_mask[plan.round_support(index), :].sum(axis=0) / dn.bandwidth
        ).astype(np.int64), 1)
        costs = np.maximum(per_col, drain)
        stream = int(costs.sum())
        unique = int(round(float(
            b_mask[plan.round_support(index), :].sum(axis=0).mean()
        )))
        mults = int(b_mask[plan.round_columns(index), :].sum())
        charge("controller", "compute_busy", n_cols)
        charge("controller", "noc_distribution",
               int((costs[per_col >= drain] - 1).sum()))
        charge("controller", "fifo_backpressure",
               int((costs[per_col < drain] - 1).sum()))
    else:
        delivery = dn.delivery_cycles(max(unique, 1), max(unique, 1))
        step = max(1, delivery, drain)
        stream = step * n_cols
        mults = nnz * n_cols
        charge("controller", "compute_busy", n_cols)
        charge(
            "controller",
            "noc_distribution" if delivery >= drain else "fifo_backpressure",
            (step - 1) * n_cols,
        )
    slots = max(unique, 1)
    merge = 0
    if resumed:
        merge_reads = resumed * n_cols
        merge = -(-merge_reads // dn.bandwidth) + -(-merge_reads // rn.bandwidth)
        gb.record_reads(merge_reads)
        rn.record_accumulations(merge_reads)
    charge("controller", "noc_reduction", merge)
    dn.enqueue(slots, slots, times=n_cols)
    dn.skip_cycles(stream)
    gb.record_reads(unique * n_cols)
    mn.record_multiplications(mults)
    for size in sizes:
        rn.record_cluster_reductions(size, n_cols)
    rn.record_outputs(rows * n_cols)
    gb.record_writes(rows * n_cols)
    ctrl.counters.add("ctrl_fifo_pushes", slots * n_cols)
    ctrl.counters.add("ctrl_fifo_pops", rows * n_cols)
    ctrl.counters.add("ctrl_psum_spills", int(plan.continued[index]) * n_cols)
    return reconfig + load + stream + merge


def _committed(config, case, slicing):
    """Plan and time the case, commit it with ``slicing(R)`` -> (lo, hi)
    pairs (``None``: the interpreting loop), and return everything the
    commit can have written."""
    stationary, n_cols, streaming, builder = case
    obs = Observability.create(stalls=True, fabric=True)
    acc = Accelerator(config, observability=obs)
    obs.start_layer(0)
    ctrl = acc.sparse_controller
    csr = from_dense(stationary, "csr")
    build = builder or natural_order_rounds
    plan = ctrl._plan_rounds(csr, build(csr.row_nnz(), acc.mn.num_ms))
    b_mask = None if streaming is None else streaming != 0
    times = ctrl._time_rounds(plan, n_cols, b_mask)
    rounds = len(plan.nnz)
    if slicing is None:
        cycles = [
            _interpret_round(ctrl, plan, index, n_cols, b_mask)
            for index in range(rounds)
        ]
        assert cycles == times.total.tolist()
    else:
        for lo, hi in slicing(rounds):
            ctrl._commit_rounds(plan, times, lo, hi)
    counters = acc._snapshot().as_dict()
    total = 10 ** 9
    return {
        "rounds": rounds,
        "counters": counters,
        "stalls": obs.stalls.finalize(total),
        "fabric": obs.fabric.finalize(counters, total),
        "dn": (acc.dn.pending_slots, acc.dn.current_cycle),
        "configured": (acc.mn.cluster_sizes, acc.rn.cluster_sizes),
    }


@pytest.mark.parametrize("point", sorted(CONFIGS))
@given(spmm_cases())
@settings(max_examples=60, deadline=None)
def test_one_commit_equals_a_commit_per_round(point, case):
    whole = _committed(
        CONFIGS[point](), case, lambda rounds: [(0, rounds)] if rounds else []
    )
    each = _committed(
        CONFIGS[point](), case, lambda rounds: [(i, i + 1) for i in range(rounds)]
    )
    assert whole == each
    assert whole == _committed(CONFIGS[point](), case, None)
    # and an uneven slicing in between
    halves = _committed(
        CONFIGS[point](), case,
        lambda rounds: [(lo, hi) for lo, hi in
                        ((0, rounds // 2), (rounds // 2, rounds)) if hi > lo],
    )
    assert halves == whole


# ---------------------------------------------------------------------------
# (d) which slicing runs
# ---------------------------------------------------------------------------

def _count_commits(ctrl, monkeypatch):
    calls = []
    commit = ctrl._commit_rounds

    def counted(plan, times, lo, hi):
        calls.append((lo, hi))
        return commit(plan, times, lo, hi)

    monkeypatch.setattr(ctrl, "_commit_rounds", counted)
    return calls


@pytest.mark.parametrize(
    "lenses",
    [{}, {"trace": True}, {"stalls": True, "fabric": True},
     {"trace": True, "stalls": True, "fabric": True}],
    ids=["bare", "trace", "ledgers", "all-lenses"],
)
def test_without_a_recorder_a_gemm_commits_once(lenses, monkeypatch):
    acc = Accelerator(
        sigma_like(num_ms=32, bandwidth=8),
        observability=Observability.create(**lenses),
    )
    calls = _count_commits(acc.sparse_controller, monkeypatch)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 48)).astype(np.float32)
    a[rng.random(a.shape) < 0.6] = 0.0
    b = rng.standard_normal((48, 7)).astype(np.float32)
    acc.run_spmm(a, b)
    rounds = acc.report.layers[-1].extra["rounds"]
    assert rounds > 3 and calls == [(0, rounds)]
    # nothing to commit when nothing was mapped
    acc.run_spmm(np.zeros_like(a), b)
    assert acc.report.layers[-1].extra["rounds"] == 0 and len(calls) == 1


def test_under_a_recorder_every_round_is_committed_before_its_sample(monkeypatch):
    obs = Observability.create(metrics_every=8)
    acc = Accelerator(sigma_like(num_ms=32, bandwidth=8), observability=obs)
    ctrl = acc.sparse_controller
    calls = _count_commits(ctrl, monkeypatch)
    seen = []
    sample = obs.sample

    def sampled(rel_cycle):
        seen.append((len(calls), ctrl.counters["ctrl_stationary_loads"]))
        return sample(rel_cycle)

    monkeypatch.setattr(obs, "sample", sampled)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((40, 48)).astype(np.float32)
    a[rng.random(a.shape) < 0.6] = 0.0
    acc.run_spmm(a, rng.standard_normal((48, 7)).astype(np.float32))
    rounds = acc.report.layers[-1].extra["rounds"]
    assert calls == [(i, i + 1) for i in range(rounds)]
    # sample i sees rounds 0..i committed and nothing of round i + 1
    assert [count for count, _loads in seen[:rounds]] == list(range(1, rounds + 1))
    loads = [loads for _count, loads in seen[:rounds]]
    assert loads == sorted(set(loads)) and loads[-1] == int((a != 0).sum())
