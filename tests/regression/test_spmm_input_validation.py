"""``SparseController.run_spmm`` rejects malformed input with a typed error.

Two ways in used to leak: ``n_cols`` was never normalised
(``run_spmm(a, 2.5)`` returned ``cycles=326.5``, ``"3"`` died with a bare
``TypeError``, ``np.int64(3)`` leaked NumPy integers into the result so
``json.dumps(dataclasses.asdict(result))`` raised), and whatever a
``round_builder`` returned was read as rounds of ``RowChunk`` without
looking (``None`` -> bare ``TypeError``, a tuple in place of a chunk ->
bare ``AttributeError`` from inside the plan). Both are ``MappingError``
now, raised before a counter moves.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import MappingError
from repro.memory.sparse_controller import RowChunk, natural_order_rounds


@pytest.fixture
def accelerator():
    return Accelerator(sigma_like(num_ms=32, bandwidth=8))


@pytest.fixture
def stationary():
    return uniform_sparse_matrix(24, 64, 0.6, seed=25)


def _untouched(acc):
    return not any(c.counters.as_dict() for c in acc.components)


@pytest.mark.parametrize(
    "n_cols", [2.5, 3.0, "3", None, [3], np.float32(3)],
    ids=["float", "whole-float", "str", "none", "list", "np-float"],
)
def test_non_integer_n_cols_is_a_mapping_error(accelerator, stationary, n_cols):
    ctrl = accelerator.sparse_controller
    with pytest.raises(MappingError, match="n_cols must be an integer") as caught:
        ctrl.run_spmm(stationary, n_cols)
    assert repr(n_cols) in str(caught.value)
    assert ctrl.counters.as_dict() == {} and _untouched(accelerator)


@pytest.mark.parametrize("n_cols", [0, -3, np.int64(0)])
def test_n_cols_below_one_still_rejected(accelerator, stationary, n_cols):
    with pytest.raises(MappingError, match="at least one column"):
        accelerator.sparse_controller.run_spmm(stationary, n_cols)
    assert _untouched(accelerator)


@pytest.mark.parametrize("streaming", [False, True], ids=["dense-b", "dual"])
@pytest.mark.parametrize("n_cols", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_n_cols_gives_a_plain_int_result(stationary, n_cols, streaming):
    b = uniform_sparse_matrix(64, 3, 0.7, seed=26) if streaming else None
    config = sigma_like(num_ms=32, bandwidth=8)
    result = Accelerator(config).sparse_controller.run_spmm(
        stationary, n_cols, streaming=b
    )
    reference = Accelerator(config).sparse_controller.run_spmm(
        stationary, 3, streaming=b
    )
    assert result == reference
    flat = dataclasses.asdict(result)
    json.dumps(flat)  # no NumPy scalar anywhere in the summary
    for key in ("cycles", "effective_macs", "dense_macs", "outputs", "rounds"):
        assert type(flat[key]) is int, key
    assert result.rounds > 1
    for stats in result.round_stats:
        for field in ("rows", "nnz", "unique_inputs", "cycles"):
            assert type(getattr(stats, field)) is int, field
        assert type(stats.utilization) is float


def test_numpy_integer_n_cols_leaves_plain_int_counters(stationary):
    acc = Accelerator(sigma_like(num_ms=32, bandwidth=8))
    acc.sparse_controller.run_spmm(stationary, np.int64(3))
    for component in acc.components:
        for name, value in component.counters.as_dict().items():
            assert type(value) is int, name
    assert type(acc.dn.pending_slots) is int
    assert type(acc.dn.current_cycle) is int
    assert type(acc.sparse_controller.current_cycle) is int


BAD_BUILDERS = {
    "none": lambda nnz, cap: None,
    "tuple-for-chunk": lambda nnz, cap: [[(0, 0, 1, True)]],
    "int-for-round": lambda nnz, cap: [3],
    "flat-chunks": lambda nnz, cap: [RowChunk(0, 0, 1, True)],
    "none-field": lambda nnz, cap: [[RowChunk(0, 0, 1, None)]],
}


@pytest.mark.parametrize("name", sorted(BAD_BUILDERS))
def test_malformed_round_builder_result_is_a_mapping_error(
    accelerator, stationary, name
):
    ctrl = accelerator.sparse_controller
    with pytest.raises(MappingError, match="RoundBuilder must return") as caught:
        ctrl.run_spmm(stationary, 4, round_builder=BAD_BUILDERS[name])
    assert "RowChunk(row, start, length, is_final)" in str(caught.value)
    assert ctrl.counters.as_dict() == {} and _untouched(accelerator)
    # still usable, and a well-formed builder is still accepted
    result = ctrl.run_spmm(stationary, 4, round_builder=natural_order_rounds)
    assert ctrl.counters["ctrl_gemms_run"] == 1 and result.rounds > 1

