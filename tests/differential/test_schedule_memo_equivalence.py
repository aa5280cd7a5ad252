"""Differential suite: a SpMM scheduled from the memo vs one scheduled afresh.

``SparseController.run_spmm`` obtains its round schedule through one
process-wide memo keyed on ``(structure_digest(operand), groups, MSs,
RN inputs, round builder)``. A hit must be indistinguishable from the
miss that filled it, everywhere but in ``schedule_memo_info()``:

(a) every case of ``sigma_payload_pin.json`` — digests taken before the
    memo existed — run twice after ``clear_schedule_memo()``: both runs
    give the committed bytes, and the second schedules nothing;
(b) re-drawing every nonzero *value* under a fixed mask gives the same
    ``LayerReport`` payload bytes, from the memo (the structure, not the
    values, decides a single-sided GEMM: what ROADMAP 3(e) needs to key
    ``SimCache`` on);
(c) the key is the content: an array edited in place is scheduled anew;
(d) fabric size, builder, ``groups`` and operand representation each
    separate the keys;
(e) a schedule that any check rejected is never stored;
(f) on a hit nothing of the schedule pipeline is entered, and under
    ``streaming=`` the memo is neither read nor written;
(g) the memo stays inside its byte budget, least recently used out first.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import MappingError
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.memory import (
    ScheduleMemoInfo,
    clear_schedule_memo,
    schedule_memo_info,
    sparse_controller,
)
from repro.memory.sparse_controller import (
    RowChunk,
    SparseController,
    natural_order_rounds,
)
from repro.noc.multiplier import MultiplierNetwork
from repro.noc.reduction import ReductionNetwork
from repro.opts import largest_filter_first_rounds
from repro.tensors import sparse
from repro.tensors.sparse import from_dense


def _load_pin_cases():
    """``tests/regression/test_sigma_payload_pin.py`` as a module: its case
    builders and digest functions are reused, not copied."""
    path = Path(__file__).resolve().parents[1] / "regression" / (
        "test_sigma_payload_pin.py"
    )
    spec = importlib.util.spec_from_file_location("sigma_payload_pin_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PIN = _load_pin_cases()
PINS = json.loads(PIN.PIN_PATH.read_text())
#: the direct cases that pass ``streaming=``: they bypass the memo
DUAL_CASES = {"dual", "dual_bw1", "ncols1_dual"}


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_schedule_memo()
    yield
    clear_schedule_memo()


def _controller(num_ms=32, bandwidth=8):
    return Accelerator(sigma_like(num_ms=num_ms, bandwidth=bandwidth)).sparse_controller


def _lookups(info):
    return info.hits + info.misses


# ---------------------------------------------------------------------------
# (a) hit equals pin
# ---------------------------------------------------------------------------

def _pinned_run(key):
    kind, *parts = key.split("/")
    if kind == "zoo":
        model, point, lenses = parts
        return lambda: PIN.zoo_digests(model, point, lenses == "lenses")
    if kind == "zoo-metrics":
        model, point = parts
        return lambda: PIN.zoo_digests(model, point, False, metrics_every=64)
    case, lenses = parts
    return lambda: PIN.direct_digests(case, lenses == "lenses")


@pytest.mark.parametrize("key", sorted(PINS))
def test_a_hit_gives_the_pinned_bytes(key):
    run = _pinned_run(key)
    first = run()
    cold = schedule_memo_info()
    second = run()
    warm = schedule_memo_info()
    assert first == PINS[key]
    assert second == PINS[key]
    if key.split("/")[1] in DUAL_CASES:
        assert cold == warm == ScheduleMemoInfo(0, 0, 0, 0)
        return
    # the second run looked up as many schedules as the first and built none
    assert cold.misses >= 1
    assert warm.misses == cold.misses
    assert warm.hits == cold.hits + _lookups(cold)
    assert (warm.entries, warm.nbytes) == (cold.entries, cold.nbytes)


def test_a_zoo_model_run_twice_schedules_once():
    """The memo is legible from outside and absent from the payload."""
    payloads = []
    infos = [schedule_memo_info()]
    for _ in range(2):
        acc = Accelerator(sigma_like(num_ms=64, bandwidth=32))
        model = build_model("squeezenet", seed=0)
        simulate(model, acc)
        try:
            model(model_input("squeezenet", batch=1, seed=1))
        finally:
            detach_context(model)
        payloads.append([layer.to_payload() for layer in acc.report.layers])
        infos.append(schedule_memo_info())
    start, first, second = infos
    spmms = sum(layer["kind"] != "maxpool" for layer in payloads[0])
    assert start == ScheduleMemoInfo(0, 0, 0, 0)
    assert _lookups(first) == spmms and first.misses == first.entries > 0
    assert second.misses == first.misses
    assert second.hits == first.hits + spmms
    assert 0 < first.nbytes == second.nbytes <= sparse_controller.SCHEDULE_MEMO_BYTES
    assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
        payloads[1], sort_keys=True
    )
    assert "memo" not in json.dumps(payloads[0])


# ---------------------------------------------------------------------------
# (b) value-blind
# ---------------------------------------------------------------------------

BUILDERS = {"ns": None, "lff": largest_filter_first_rounds}


@st.composite
def masked_convs(draw):
    """A (possibly grouped) convolution's filter mask, with rows wider
    than the smallest fabrics so that some fold."""
    groups = draw(st.sampled_from([1, 1, 2, 3]))
    k = draw(st.integers(1, 6))
    c_g = draw(st.integers(1, 5))
    side = draw(st.sampled_from([1, 3]))
    density = draw(st.sampled_from([0.15, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    mask = rng.random((k * groups, c_g, side, side)) < density
    if draw(st.booleans()):
        mask[draw(st.integers(0, k * groups - 1))] = False  # an all-zero filter
    x = rng.standard_normal((1, c_g * groups, side + 2, side + 1)).astype(np.float32)
    num_ms = draw(st.sampled_from([16, 32, 64, 128]))
    return mask, groups, x, num_ms, draw(st.sampled_from(sorted(BUILDERS))), seed


def _values_under(mask, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 2.0, mask.shape) * rng.choice([-1.0, 1.0], mask.shape)
    return (values * mask).astype(np.float32)


def _conv_payload(weights, groups, x, num_ms, builder):
    acc = Accelerator(sigma_like(num_ms=num_ms, bandwidth=num_ms // 2))
    acc.run_conv(
        weights, x, groups=groups, name="conv", round_builder=BUILDERS[builder]
    )
    (layer,) = acc.report.layers
    return json.dumps(layer.to_payload(), sort_keys=True)


@given(masked_convs())
@settings(max_examples=60, deadline=None)
def test_only_the_mask_decides_a_single_sided_gemm(case):
    mask, groups, x, num_ms, builder, seed = case
    clear_schedule_memo()
    first = _conv_payload(_values_under(mask, seed + 1), groups, x, num_ms, builder)
    assert schedule_memo_info()[:3] == (0, 1, 1)
    redrawn = _values_under(mask, seed + 2)
    second = _conv_payload(redrawn, groups, x, num_ms, builder)
    assert schedule_memo_info()[:3] == (1, 1, 1)
    assert second == first
    clear_schedule_memo()
    assert _conv_payload(redrawn, groups, x, num_ms, builder) == first


# ---------------------------------------------------------------------------
# (c) in-place mutation
# ---------------------------------------------------------------------------

def test_an_array_edited_in_place_is_scheduled_anew():
    w = uniform_sparse_matrix(24, 40, 0.5, seed=31)
    stale = _controller().run_spmm(w, 6)
    assert stale.rounds > 2
    # same array object: drop a nonzero of the first row, set a zero of
    # the last (they sit in different rounds)
    w[0, np.flatnonzero(w[0])[0]] = 0.0
    w[-1, np.flatnonzero(w[-1] == 0)[0]] = 1.0
    edited = _controller().run_spmm(w, 6)
    assert schedule_memo_info()[:3] == (0, 2, 2)
    clear_schedule_memo()
    reference = _controller().run_spmm(w.copy(), 6)
    assert edited == reference
    assert edited != stale
    assert edited.round_stats[0].nnz == stale.round_stats[0].nnz - 1


# ---------------------------------------------------------------------------
# (d) key separation
# ---------------------------------------------------------------------------

def _variants():
    w = uniform_sparse_matrix(24, 40, 0.55, seed=33)
    w[4] = 0.0
    csr = from_dense(w, "csr")
    # a CSR that is not what from_dense(w) makes: same shape, row 0 emptied
    other_csr = from_dense(np.vstack([np.zeros_like(w[:1]), w[1:]]), "csr")
    return {
        "dense-64": (64, dict(stationary=w)),
        "dense-128": (128, dict(stationary=w)),
        "lff-64": (64, dict(stationary=w, round_builder=largest_filter_first_rounds)),
        "ns-explicit-64": (64, dict(stationary=w, round_builder=natural_order_rounds)),
        "groups3-64": (64, dict(stationary=w, groups=3)),
        "groups2-64": (64, dict(stationary=w, groups=2)),
        "csr-64": (64, dict(stationary=csr)),
        "other-csr-64": (64, dict(stationary=other_csr)),
        "bitmap-64": (64, dict(stationary=from_dense(w, "bitmap"))),
        "transposed-64": (64, dict(stationary=np.ascontiguousarray(w.T))),
    }


def _run_variant(num_ms, kwargs):
    return _controller(num_ms, num_ms // 2).run_spmm(n_cols=5, **kwargs)


def test_each_key_field_separates_the_schedules():
    variants = _variants()
    references = {}
    for name, variant in variants.items():
        clear_schedule_memo()
        references[name] = _run_variant(*variant)
    clear_schedule_memo()
    # all in one memo, in two orders, so every variant runs as a miss
    # beside the others' entries and then as a hit
    for order in (sorted(variants), sorted(variants, reverse=True)):
        for name in order:
            assert _run_variant(*variants[name]) == references[name], name
    info = schedule_memo_info()
    # the same structure through NS, implicit or explicit, and through a
    # dense array or its bitmap, is one entry; the CSR form has its own
    assert info.entries == len(variants) - 2
    assert info.misses == info.entries and info.hits == 2 * len(variants) - info.misses
    # and the fields matter: these really are different schedules
    distinct = ["dense-64", "dense-128", "lff-64", "groups3-64", "groups2-64",
                "other-csr-64", "transposed-64"]
    summaries = [dataclasses.astuple(references[name]) for name in distinct]
    assert len(set(summaries)) == len(distinct)
    for same in ("ns-explicit-64", "csr-64", "bitmap-64"):
        assert references[same] == references["dense-64"]


# ---------------------------------------------------------------------------
# (e) failures are never stored
# ---------------------------------------------------------------------------

def _overfull(row_nnz, capacity):
    """Every row in one round, whatever the fabric holds."""
    return [[RowChunk(row, 0, int(nnz), True)
             for row, nnz in enumerate(row_nnz) if nnz]]


def test_a_rejected_schedule_is_rejected_again():
    w = uniform_sparse_matrix(24, 40, 0.5, seed=35)
    messages = []
    for _ in range(2):
        ctrl = _controller()
        with pytest.raises(MappingError, match="nonzeros onto 32 MSs") as caught:
            ctrl.run_spmm(w, 4, round_builder=_overfull)
        messages.append(str(caught.value))
        assert ctrl.counters.as_dict() == {}
        assert schedule_memo_info().entries == 0
    assert messages[0] == messages[1]
    assert schedule_memo_info()[:2] == (0, 2)


@pytest.mark.parametrize("network", ["mn", "rn"])
def test_a_schedule_the_fabric_check_rejects_is_not_stored(network, monkeypatch):
    w = uniform_sparse_matrix(24, 40, 0.5, seed=35)
    ctrl = _controller()

    def reject(sizes, offsets):
        raise MappingError("rejected by the fabric")

    with monkeypatch.context() as patched:
        patched.setattr(getattr(ctrl, network), "verify_rounds", reject)
        for _ in range(2):
            with pytest.raises(MappingError, match="rejected by the fabric"):
                ctrl.run_spmm(w, 4)
            assert schedule_memo_info().entries == 0
            assert ctrl.counters.as_dict() == {}
    ctrl.run_spmm(w, 4)
    assert schedule_memo_info()[:3] == (0, 3, 1)


# ---------------------------------------------------------------------------
# (f) poison
# ---------------------------------------------------------------------------

class _ArmableBuilder:
    """Natural order — until armed: the same key, a different outcome."""

    armed = False

    def __call__(self, row_nnz, capacity):
        if self.armed:
            raise AssertionError("round builder entered on a hit")
        return natural_order_rounds(row_nnz, capacity)


def _poison(monkeypatch, owner, name):
    def poisoned(*args, **kwargs):
        raise AssertionError(f"{name} entered")

    monkeypatch.setattr(owner, name, poisoned)


@pytest.mark.parametrize("groups", [1, 3])
def test_a_hit_enters_nothing_of_the_schedule_pipeline(groups, monkeypatch):
    w = uniform_sparse_matrix(24, 40, 0.5, seed=37)
    builder = _ArmableBuilder()
    miss = _controller().run_spmm(w, 7, builder, groups=groups)
    builder.armed = True
    _poison(monkeypatch, sparse, "from_dense")
    _poison(monkeypatch, sparse_controller, "block_diagonal_csr")
    _poison(monkeypatch, SparseController, "_plan_rounds")
    _poison(monkeypatch, SparseController, "_validate_rounds")
    _poison(monkeypatch, MultiplierNetwork, "verify_rounds")
    _poison(monkeypatch, ReductionNetwork, "verify_rounds")
    hit = _controller().run_spmm(w.copy(), 7, builder, groups=groups)
    assert hit == miss
    assert schedule_memo_info()[:3] == (1, 1, 1)
    # the poison is live: another structure has to be scheduled
    with pytest.raises(AssertionError, match="entered"):
        _controller().run_spmm(w[:-1], 7, builder, groups=groups)


def test_streaming_neither_reads_nor_writes_the_memo(monkeypatch):
    w = uniform_sparse_matrix(24, 40, 0.5, seed=37)
    b = uniform_sparse_matrix(40, 7, 0.6, seed=38)
    single = _controller().run_spmm(w, 7)
    warm = schedule_memo_info()
    assert warm[:3] == (0, 1, 1)
    _poison(monkeypatch, sparse_controller, "_memoized_schedule")
    _poison(monkeypatch, sparse_controller, "structure_digest")
    dual = _controller().run_spmm(w, 7, streaming=b)
    assert schedule_memo_info() == warm
    assert dual.effective_macs < single.effective_macs
    monkeypatch.undo()
    # and a memo that holds the structure changes nothing for it
    clear_schedule_memo()
    assert _controller().run_spmm(w, 7, streaming=b) == dual
    assert schedule_memo_info() == ScheduleMemoInfo(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# (g) bound
# ---------------------------------------------------------------------------

def _structure(seed):
    return uniform_sparse_matrix(24, 40, 0.5, seed=seed)


def _is_stored(matrix):
    """Run it and say whether that was a hit (it is stored afterwards
    either way, as the most recently used)."""
    before = schedule_memo_info()
    _controller().run_spmm(matrix, 3)
    return schedule_memo_info().hits == before.hits + 1


def test_the_memo_evicts_least_recently_used_inside_its_budget(monkeypatch):
    a, b, c, d = (_structure(seed) for seed in (41, 42, 43, 44))
    _controller().run_spmm(a, 3)
    one = schedule_memo_info().nbytes
    assert one > 0
    clear_schedule_memo()
    # room for three schedules of this size, not four
    budget = int(3.5 * one)
    monkeypatch.setattr(sparse_controller, "SCHEDULE_MEMO_BYTES", budget)
    for matrix in (a, b, c):
        assert not _is_stored(matrix)
        assert schedule_memo_info().nbytes <= budget
    assert schedule_memo_info().entries == 3
    assert _is_stored(a)            # a is now the most recently used
    assert not _is_stored(d)        # evicts b, the least recently used
    info = schedule_memo_info()
    assert info.entries == 3 and info.nbytes <= budget
    assert _is_stored(c) and _is_stored(a) and _is_stored(d)
    assert not _is_stored(b)        # b was the one that went (now c goes)
    assert schedule_memo_info().entries == 3
    assert not _is_stored(c)


def test_a_schedule_larger_than_the_budget_is_not_kept(monkeypatch):
    monkeypatch.setattr(sparse_controller, "SCHEDULE_MEMO_BYTES", 64)
    reference = _controller().run_spmm(_structure(45), 3)
    assert schedule_memo_info() == ScheduleMemoInfo(0, 1, 0, 0)
    assert _controller().run_spmm(_structure(45), 3) == reference
    assert schedule_memo_info() == ScheduleMemoInfo(0, 2, 0, 0)


def test_clearing_resets_the_counts():
    _controller().run_spmm(_structure(46), 3)
    _controller().run_spmm(_structure(46), 3)
    assert schedule_memo_info()[:3] == (1, 1, 1)
    clear_schedule_memo()
    assert schedule_memo_info() == ScheduleMemoInfo(0, 0, 0, 0)
