"""Differential suite: the array-built round plan vs its slow definitions.

``SparseController._plan_rounds`` tabulates, for all rounds of a GEMM at
once, what the round loop used to recompute per round from the chunk
lists. The slow definitions live on here, as the reference: a ``set``
union of the chunks' column slices, ``sum`` of the lengths, counts of
``not is_final`` / ``start > 0``. Likewise ``from_dense(..., "csr")``
and ``CsrMatrix.to_dense`` against their row-loop originals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.memory.sparse_controller import (
    natural_order_rounds,
    pack_rows_in_order,
)
from repro.opts import largest_filter_first_rounds
from repro.tensors.sparse import CsrMatrix, from_dense


# ---------------------------------------------------------------------------
# references (the code the vectorised forms replaced)
# ---------------------------------------------------------------------------

def _round_reference(csr, chunks):
    support = set()
    columns = []
    for chunk in chunks:
        cols, _vals = csr.row(chunk.row)
        chunk_cols = cols[chunk.start : chunk.start + chunk.length]
        support.update(int(c) for c in chunk_cols)
        columns.extend(int(c) for c in chunk_cols)
    return {
        "cluster_sizes": [chunk.length for chunk in chunks],
        "nnz": sum(chunk.length for chunk in chunks),
        "unique": len(support),
        "support": sorted(support),
        "columns": columns,
        "continued": sum(1 for chunk in chunks if not chunk.is_final),
        "resumed": sum(1 for chunk in chunks if chunk.start > 0),
    }


def _csr_reference(dense):
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    indices, values = [], []
    for i in range(dense.shape[0]):
        cols = np.nonzero(dense[i])[0]
        indptr[i + 1] = indptr[i] + len(cols)
        indices.append(cols)
        values.append(dense[i, cols])
    indices_arr = (
        np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64)
    )
    values_arr = (
        np.concatenate(values) if values else np.zeros(0, dtype=dense.dtype)
    )
    return indptr, indices_arr.astype(np.int64), values_arr


def _to_dense_reference(csr):
    dense = np.zeros(csr.shape, dtype=csr.values.dtype)
    for i in range(csr.shape[0]):
        cols, vals = csr.row(i)
        dense[i, cols] = vals
    return dense


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw, min_rows=0):
    rows = draw(st.integers(min_rows, 14))
    cols = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.1, 0.4, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((rows, cols)).astype(np.float32)
    dense[rng.random((rows, cols)) >= density] = 0.0
    for row in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=3)):
        if rows:
            dense[row] = 0.0  # all-zero rows
    return dense


def _shuffled_rounds(seed):
    def builder(row_nnz, capacity):
        order = np.random.default_rng(seed).permutation(len(row_nnz))
        return pack_rows_in_order(row_nnz, capacity, order)

    return builder


BUILDERS = {
    "natural": lambda seed: natural_order_rounds,
    "lff": lambda seed: largest_filter_first_rounds,
    "shuffled": _shuffled_rounds,
}


# ---------------------------------------------------------------------------
# the round plan
# ---------------------------------------------------------------------------

@given(
    sparse_matrices(),
    st.sampled_from([4, 8, 16, 64]),
    st.sampled_from(sorted(BUILDERS)),
    st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_every_plan_row_equals_the_slow_definition(dense, capacity, order, seed):
    ctrl = Accelerator(
        sigma_like(num_ms=capacity, bandwidth=capacity // 2)
    ).sparse_controller
    csr = from_dense(dense, "csr")
    rounds = BUILDERS[order](seed)(csr.row_nnz(), capacity)
    plan = ctrl._plan_rounds(csr, rounds)

    assert len(plan.nnz) == len(rounds)
    for index, chunks in enumerate(rounds):
        reference = _round_reference(csr, chunks)
        assert plan.cluster_sizes(index).tolist() == reference["cluster_sizes"]
        assert plan.rows[index] == len(chunks)
        assert plan.nnz[index] == reference["nnz"]
        assert plan.unique[index] == reference["unique"]
        assert plan.round_support(index).tolist() == reference["support"]
        assert plan.round_columns(index).tolist() == reference["columns"]
        assert plan.continued[index] == reference["continued"]
        assert plan.resumed[index] == reference["resumed"]
    assert plan.max_cluster == max(
        (chunk.length for chunks in rounds for chunk in chunks), default=0
    )
    # the per-round entries are int64 columns, one entry per round (they
    # become plain ints where they leave the controller, see
    # tests/regression/test_spmm_input_validation.py)
    for column in (plan.rows, plan.nnz, plan.unique, plan.continued,
                   plan.resumed):
        assert column.dtype == np.int64 and column.shape == (len(rounds),)
    assert plan.sizes.dtype == np.int64
    assert plan.chunk_offsets.tolist()[-1] == len(plan.sizes)
    assert type(plan.max_cluster) is int


def test_plan_of_an_empty_schedule():
    ctrl = Accelerator(sigma_like(num_ms=16, bandwidth=8)).sparse_controller
    csr = from_dense(np.zeros((3, 5), dtype=np.float32), "csr")
    plan = ctrl._plan_rounds(csr, [])
    assert plan.nnz.size == 0 and plan.sizes.size == 0 and plan.unique.size == 0
    assert plan.chunk_offsets.tolist() == [0]
    assert plan.max_cluster == 0
    assert plan.columns.size == 0 and plan.support.size == 0


# ---------------------------------------------------------------------------
# CSR encode / decode
# ---------------------------------------------------------------------------

def _assert_csr_matches_reference(dense):
    csr = from_dense(dense, "csr")
    indptr, indices, values = _csr_reference(dense)
    for got, want in (
        (csr.indptr, indptr), (csr.indices, indices), (csr.values, values),
    ):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert csr.shape == dense.shape
    round_trip = csr.to_dense()
    assert round_trip.dtype == dense.dtype
    assert round_trip.tobytes() == _to_dense_reference(csr).tobytes()
    assert np.array_equal(round_trip, dense)


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_csr_encoding_equals_the_row_loop(dense):
    _assert_csr_matches_reference(dense)


@pytest.mark.parametrize(
    "dense",
    [
        np.zeros((4, 6), dtype=np.float32),                    # all-zero matrix
        np.zeros((0, 6), dtype=np.float32),                    # no rows
        np.zeros((3, 0), dtype=np.float32),                    # no columns
        np.array([[0, 0, 0], [1, 0, 2], [0, 0, 0]], dtype=np.float32),
        np.array([[0, 3], [0, 0], [5, 0]], dtype=np.int32),    # another dtype
        np.arange(12, dtype=np.float64).reshape(3, 4)[:, ::2], # non-contiguous
    ],
    ids=["all-zero", "zero-rows", "zero-cols", "zero-edge-rows", "int32", "strided"],
)
def test_csr_encoding_edge_cases(dense):
    _assert_csr_matches_reference(dense)


def test_to_dense_last_duplicate_wins_like_the_row_loop():
    """A CSR with a repeated (row, column) entry decodes as before."""
    csr = CsrMatrix(
        indptr=np.array([0, 3, 3], dtype=np.int64),
        indices=np.array([1, 1, 0], dtype=np.int64),
        values=np.array([2.0, 7.0, 1.0], dtype=np.float32),
        shape=(2, 3),
    )
    assert csr.to_dense().tobytes() == _to_dense_reference(csr).tobytes()
