"""``SparseController.run_spmm`` rejects malformed input with a typed error.

Two ways in used to leak: ``n_cols`` was never normalised
(``run_spmm(a, 2.5)`` returned ``cycles=326.5``, ``"3"`` died with a bare
``TypeError``, ``np.int64(3)`` leaked NumPy integers into the result so
``json.dumps(dataclasses.asdict(result))`` raised), and whatever a
``round_builder`` returned was read as rounds of ``RowChunk`` without
looking (``None`` -> bare ``TypeError``, a tuple in place of a chunk ->
bare ``AttributeError`` from inside the plan). Both are ``MappingError``
now, raised before a counter moves.

A third (ISSUE 21): index arrays of the wrong dtype reached the plan's
gather untyped — a ``CsrMatrix`` with float ``indptr`` died with a bare
``IndexError`` inside ``_plan_rounds``, float ``indices`` were accepted
silently (and would give ``structure_digest`` other bytes for the same
structure), ``from_dense`` of a nested list raised ``AttributeError``.
``CsrMatrix`` now rejects non-integer index arrays with
``ConfigurationError`` and ``from_dense`` coerces; the new ``groups``
parameter is normalised like ``n_cols``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError, MappingError
from repro.memory.sparse_controller import RowChunk, natural_order_rounds
from repro.tensors.sparse import CsrMatrix, from_dense


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


# ---------------------------------------------------------------------------
# index arrays of the wrong dtype (ISSUE 21)
# ---------------------------------------------------------------------------

def _csr_fields(**overrides):
    fields = dict(
        indptr=np.array([0, 2], dtype=np.int64),
        indices=np.array([3, 1], dtype=np.int64),
        values=np.array([1.0, 2.0], dtype=np.float32),
        shape=(1, 4),
    )
    fields.update(overrides)
    return fields


@pytest.mark.parametrize(
    "field,array",
    [
        ("indptr", np.array([0.0, 2.0])),
        ("indices", np.array([3.0, 1.0])),
        ("indices", np.array([True, False])),
        ("indptr", np.array(["0", "2"])),
    ],
    ids=["float-indptr", "float-indices", "bool-indices", "str-indptr"],
)
def test_non_integer_csr_index_arrays_are_a_configuration_error(field, array):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        CsrMatrix(**_csr_fields(**{field: array}))


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
def test_any_integer_index_dtype_is_the_same_operand(accelerator, dtype):
    from repro.tensors.sparse import structure_digest

    reference = CsrMatrix(**_csr_fields())
    narrow = CsrMatrix(**_csr_fields(
        indptr=np.array([0, 2], dtype=dtype), indices=np.array([3, 1], dtype=dtype),
    ))
    assert structure_digest(narrow) == structure_digest(reference)
    config = sigma_like(num_ms=32, bandwidth=8)
    assert (
        Accelerator(config).sparse_controller.run_spmm(narrow, 3)
        == accelerator.sparse_controller.run_spmm(reference, 3)
    )


def test_unsorted_and_duplicate_columns_stay_accepted(accelerator):
    # test_to_dense_last_duplicate_wins_like_the_row_loop pins the decode;
    # the controller maps every stored entry
    csr = CsrMatrix(**_csr_fields(
        indptr=np.array([0, 3]), indices=np.array([3, 1, 1]),
        values=np.array([1.0, 2.0, 7.0], dtype=np.float32),
    ))
    result = accelerator.sparse_controller.run_spmm(csr, 3)
    assert result.effective_macs == 3 * 3


def test_from_dense_coerces_a_nested_list():
    csr = from_dense([[1, 0], [0, 1]], "csr")
    assert csr.indptr.tolist() == [0, 1, 2] and csr.indices.tolist() == [0, 1]
    assert from_dense([[1, 0], [0, 1]], "bitmap").nnz == 2
    with pytest.raises(ConfigurationError, match="2-D"):
        from_dense([1, 0, 1], "csr")


@pytest.mark.parametrize(
    "groups", [2.0, 1.5, "2", None, [2], np.float32(2)],
    ids=["whole-float", "float", "str", "none", "list", "np-float"],
)
def test_non_integer_groups_is_a_mapping_error(accelerator, stationary, groups):
    ctrl = accelerator.sparse_controller
    with pytest.raises(MappingError, match="groups must be an integer") as caught:
        ctrl.run_spmm(stationary, 4, groups=groups)
    assert repr(groups) in str(caught.value)
    assert ctrl.counters.as_dict() == {} and _untouched(accelerator)


@pytest.mark.parametrize("groups", [0, -2, np.int64(0)])
def test_groups_below_one_is_a_mapping_error(accelerator, stationary, groups):
    ctrl = accelerator.sparse_controller
    with pytest.raises(MappingError, match="groups must be at least 1"):
        ctrl.run_spmm(stationary, 4, groups=groups)
    assert ctrl.counters.as_dict() == {} and _untouched(accelerator)


def test_groups_that_do_not_divide_the_rows_move_no_counter(accelerator, stationary):
    ctrl = accelerator.sparse_controller
    with pytest.raises(ConfigurationError, match="24 rows do not split into 5"):
        ctrl.run_spmm(stationary, 4, groups=5)
    assert ctrl.counters.as_dict() == {} and _untouched(accelerator)


def test_numpy_integer_groups_is_the_plain_int_gemm(stationary):
    config = sigma_like(num_ms=32, bandwidth=8)
    result = Accelerator(config).sparse_controller.run_spmm(
        stationary, 4, groups=np.int64(3)
    )
    assert result == Accelerator(config).sparse_controller.run_spmm(
        stationary, 4, groups=3
    )
    json.dumps(dataclasses.asdict(result))
    assert result.dense_macs == 24 * (64 * 3) * 4


# ---------------------------------------------------------------------------
# an empty stationary operand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "operand",
    [
        np.zeros((0, 16), dtype=np.float32),
        np.zeros((8, 0), dtype=np.float32),
        from_dense(np.zeros((0, 16), dtype=np.float32), "csr"),
        from_dense(np.zeros((8, 0), dtype=np.float32), "bitmap"),
    ],
    ids=["no-rows", "no-columns", "csr-no-rows", "bitmap-no-columns"],
)
@pytest.mark.parametrize("streaming", [False, True], ids=["dense-b", "dual"])
def test_an_empty_stationary_operand_is_a_mapping_error(
    accelerator, operand, streaming
):
    # it used to time a 4-cycle GEMM with DRAM traffic, where run_gemm
    # rejects the same shapes
    ctrl = accelerator.sparse_controller
    b = np.ones((operand.shape[1], 3), dtype=np.float32) if streaming else None
    with pytest.raises(MappingError, match="at least one row and one column") as caught:
        ctrl.run_spmm(operand, 3, streaming=b)
    assert str(tuple(operand.shape)) in str(caught.value)
    assert _untouched(accelerator)
    with pytest.raises(MappingError, match="at least one row and one column"):
        ctrl.time_spmm(operand, 3, streaming=b)
    assert _untouched(accelerator)


def test_an_empty_stationary_operand_fails_the_accelerator_layer():
    acc = Accelerator(sigma_like(num_ms=32, bandwidth=8))
    with pytest.raises(MappingError, match="at least one row and one column"):
        acc.run_spmm(np.zeros((0, 16), dtype=np.float32),
                     np.ones((16, 3), dtype=np.float32))
    assert not any(c.counters.as_dict() for c in acc.components)


def test_all_zero_and_empty_csr_stay_accepted(accelerator):
    # an all-zero (M, K > 0) operand has no rounds but a shape to time
    result = accelerator.sparse_controller.run_spmm(
        np.zeros((8, 16), dtype=np.float32), 3
    )
    assert result.rounds == 0 and result.dense_macs == 8 * 16 * 3
    # and empty matrices still encode
    assert from_dense(np.zeros((0, 4), dtype=np.float32), "csr").nnz == 0
    assert from_dense(np.zeros((3, 0), dtype=np.float32), "bitmap").nnz == 0


# ---------------------------------------------------------------------------
# non-numeric operands (ROADMAP 8(d))
# ---------------------------------------------------------------------------

#: operands NumPy reads as strings or objects, or cannot read at all; the
#: first two used to be timed (a 12-cycle, 4-MAC GEMM on sigma16), the
#: ragged ones leaked NumPy's bare ``ValueError``
NON_NUMERIC = {
    "strings": [["a", ""]],
    "objects": [[{}, None]],
    "ragged": [[1.0, 0.0], [1.0]],
}


@pytest.mark.parametrize("name", sorted(NON_NUMERIC))
@pytest.mark.parametrize("entry", ["time_spmm", "run_spmm"])
def test_a_non_numeric_stationary_operand_is_a_configuration_error(name, entry):
    acc = Accelerator(sigma_like(num_ms=16, bandwidth=8))
    call = getattr(acc.sparse_controller, entry)
    with pytest.raises(ConfigurationError, match="operand stationary"):
        call(NON_NUMERIC[name], 2)
    assert _untouched(acc)


@pytest.mark.parametrize("name", sorted(NON_NUMERIC))
def test_a_non_numeric_streaming_operand_is_a_configuration_error(name):
    acc = Accelerator(sigma_like(num_ms=16, bandwidth=8))
    with pytest.raises(ConfigurationError, match="operand streaming"):
        acc.sparse_controller.time_spmm(
            [[1.0, 0.0], [0.0, 1.0]], 2, streaming=NON_NUMERIC[name]
        )
    assert _untouched(acc)


@pytest.mark.parametrize(
    "dtype", [bool, np.int8, np.uint16, np.int64, np.float16, np.float64]
)
def test_bool_int_and_float_operands_time_as_before(dtype):
    a = uniform_sparse_matrix(12, 24, 0.6, seed=0) != 0
    b = uniform_sparse_matrix(24, 6, 0.5, seed=1000) != 0
    config = sigma_like(num_ms=16, bandwidth=8)
    reference = Accelerator(config).sparse_controller.run_spmm(
        a.astype(np.float32), 6, streaming=b.astype(np.float32)
    )
    result = Accelerator(config).sparse_controller.run_spmm(
        a.astype(dtype), 6, streaming=b.astype(dtype)
    )
    assert result == reference
