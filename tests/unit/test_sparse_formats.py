"""Bitmap / CSR compression formats."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tensors.sparse import (
    BitmapMatrix,
    CsrMatrix,
    block_diagonal_csr,
    from_dense,
    to_dense,
)


@pytest.fixture
def sparse_dense(rng):
    dense = rng.standard_normal((6, 10)).astype(np.float32)
    dense[np.abs(dense) < 0.8] = 0.0
    return dense


class TestBitmap:
    def test_round_trip(self, sparse_dense):
        compressed = from_dense(sparse_dense, "bitmap")
        assert isinstance(compressed, BitmapMatrix)
        assert np.array_equal(to_dense(compressed), sparse_dense)

    def test_nnz(self, sparse_dense):
        compressed = from_dense(sparse_dense, "bitmap")
        assert compressed.nnz == np.count_nonzero(sparse_dense)

    def test_row_nnz(self, sparse_dense):
        compressed = from_dense(sparse_dense, "bitmap")
        expected = (sparse_dense != 0).sum(axis=1)
        assert np.array_equal(compressed.row_nnz(), expected)

    def test_metadata_is_one_bit_per_element(self, sparse_dense):
        compressed = from_dense(sparse_dense, "bitmap")
        assert compressed.metadata_bits() == sparse_dense.size

    def test_validates_value_count(self):
        with pytest.raises(ConfigurationError):
            BitmapMatrix(
                bitmap=np.ones((2, 2), dtype=np.uint8),
                values=np.ones(3, dtype=np.float32),
                shape=(2, 2),
            )


class TestCsr:
    def test_round_trip(self, sparse_dense):
        compressed = from_dense(sparse_dense, "csr")
        assert isinstance(compressed, CsrMatrix)
        assert np.array_equal(to_dense(compressed), sparse_dense)

    def test_row_access(self, sparse_dense):
        compressed = from_dense(sparse_dense, "csr")
        cols, vals = compressed.row(0)
        assert np.array_equal(cols, np.nonzero(sparse_dense[0])[0])
        assert np.array_equal(vals, sparse_dense[0][sparse_dense[0] != 0])

    def test_row_nnz_matches_indptr(self, sparse_dense):
        compressed = from_dense(sparse_dense, "csr")
        assert np.array_equal(
            compressed.row_nnz(), np.diff(compressed.indptr)
        )

    def test_all_zero_matrix(self):
        compressed = from_dense(np.zeros((3, 4), dtype=np.float32), "csr")
        assert compressed.nnz == 0
        assert np.array_equal(to_dense(compressed), np.zeros((3, 4)))

    def test_validates_indptr_bounds(self):
        with pytest.raises(ConfigurationError):
            CsrMatrix(
                indptr=np.array([0, 5]),
                indices=np.array([0]),
                values=np.array([1.0]),
                shape=(1, 3),
            )

    def test_validates_column_range(self):
        with pytest.raises(ConfigurationError):
            CsrMatrix(
                indptr=np.array([0, 1]),
                indices=np.array([7]),
                values=np.array([1.0]),
                shape=(1, 3),
            )

    def test_validates_monotone_indptr(self):
        with pytest.raises(ConfigurationError):
            CsrMatrix(
                indptr=np.array([0, 2, 1, 3]),
                indices=np.array([0, 1, 2]),
                values=np.ones(3),
                shape=(3, 3),
            )


def test_unknown_format_rejected(sparse_dense):
    with pytest.raises(ConfigurationError):
        from_dense(sparse_dense, "coo")


def test_non_2d_rejected(rng):
    with pytest.raises(ConfigurationError):
        from_dense(rng.standard_normal((2, 3, 4)), "bitmap")


class TestBlockDiagonal:
    """A grouped convolution's filters as one block-diagonal CSR, built
    without the zeros between the blocks."""

    def test_equals_the_densified_block_matrix_field_by_field(self, rng):
        groups, k, c_per_group = 4, 3, 2
        weights = rng.standard_normal((groups * k, c_per_group, 3, 3)).astype(
            np.float32
        )
        weights[rng.random(weights.shape) < 0.5] = 0.0
        weights[4] = 0.0  # an all-zero filter in the second group
        dot = c_per_group * 9
        block = np.zeros((k * groups, dot * groups), dtype=np.float32)
        for g in range(groups):
            block[g * k:(g + 1) * k, g * dot:(g + 1) * dot] = (
                weights[g * k:(g + 1) * k].reshape(k, -1)
            )
        built = block_diagonal_csr(weights.reshape(groups * k, dot), groups)
        reference = from_dense(block, "csr")
        assert built.shape == reference.shape
        for field in ("indptr", "indices", "values"):
            got, want = getattr(built, field), getattr(reference, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        assert built.row_nnz()[4] == 0

    def test_one_group_is_the_plain_csr(self, sparse_dense):
        built = block_diagonal_csr(sparse_dense, 1)
        assert np.array_equal(built.to_dense(), sparse_dense)

    @pytest.mark.parametrize("groups", [0, -1, 4])
    def test_rows_must_split_into_equal_blocks(self, sparse_dense, groups):
        with pytest.raises(ConfigurationError, match="equal blocks"):
            block_diagonal_csr(sparse_dense, groups)
