"""Bitmap / CSR compression formats."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.tensors.sparse import (
    BitmapMatrix,
    CsrMatrix,
    block_diagonal_csr,
    from_dense,
    structure_digest,
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

    def test_stacked_blocks_may_already_be_compressed(self, sparse_dense):
        from_array = block_diagonal_csr(sparse_dense, 3)
        from_csr = block_diagonal_csr(from_dense(sparse_dense, "csr"), 3)
        assert from_csr.shape == from_array.shape == (6, 30)
        for field in ("indptr", "indices", "values"):
            assert getattr(from_csr, field).tobytes() == (
                getattr(from_array, field).tobytes()
            )

    @pytest.mark.parametrize("groups", [0, -1, 4])
    def test_rows_must_split_into_equal_blocks(self, sparse_dense, groups):
        with pytest.raises(ConfigurationError, match="equal blocks"):
            block_diagonal_csr(sparse_dense, groups)


class TestStructureDigest:
    """``structure_digest`` names where the nonzeros are, nothing else."""

    def test_values_do_not_enter(self, sparse_dense):
        rescaled = sparse_dense * -3.5
        assert structure_digest(rescaled) == structure_digest(sparse_dense)
        assert structure_digest(rescaled.astype(np.float64)) == structure_digest(
            sparse_dense
        )
        assert structure_digest((sparse_dense != 0).tolist()) == structure_digest(
            sparse_dense
        )

    def test_every_position_enters(self, sparse_dense):
        seen = {structure_digest(sparse_dense)}
        for row, col in np.ndindex(*sparse_dense.shape):
            flipped = sparse_dense.copy()
            flipped[row, col] = 0.0 if flipped[row, col] else 1.0
            seen.add(structure_digest(flipped))
        assert len(seen) == sparse_dense.size + 1

    def test_the_shape_enters(self):
        bits = np.zeros(12, dtype=np.float32)
        bits[[0, 5, 7]] = 1.0
        shapes = [(1, 12), (2, 6), (3, 4), (4, 3), (12, 1)]
        assert len({structure_digest(bits.reshape(s)) for s in shapes}) == len(shapes)
        # the packed bits alone would not tell 2 x 3 from 2 x 4 zeros apart
        assert structure_digest(np.zeros((2, 3))) != structure_digest(np.zeros((2, 4)))

    def test_read_off_the_content_not_the_object(self, sparse_dense):
        before = structure_digest(sparse_dense)
        row, col = np.argwhere(sparse_dense != 0)[0]
        sparse_dense[row, col] = 0.0
        assert structure_digest(sparse_dense) != before
        assert structure_digest(sparse_dense.copy()) == structure_digest(sparse_dense)

    def test_memory_layout_does_not_enter(self, sparse_dense):
        strided = np.asfortranarray(sparse_dense)
        assert structure_digest(strided) == structure_digest(sparse_dense)
        wide = np.zeros((6, 20), dtype=np.float32)
        wide[:, ::2] = sparse_dense
        assert structure_digest(wide[:, ::2]) == structure_digest(sparse_dense)

    def test_a_bitmap_is_its_dense_matrix(self, sparse_dense):
        bitmap = from_dense(sparse_dense, "bitmap")
        assert structure_digest(bitmap) == structure_digest(sparse_dense)
        # a set bit holding a stored zero decodes (and compresses) as a zero
        row, col = np.argwhere(sparse_dense != 0)[0]
        values = bitmap.values.copy()
        values[0] = 0.0
        stored_zero = BitmapMatrix(bitmap.bitmap, values, bitmap.shape)
        cleared = sparse_dense.copy()
        cleared[row, col] = 0.0
        assert structure_digest(stored_zero) == structure_digest(cleared)

    def test_a_csr_is_its_index_arrays(self, sparse_dense):
        csr = from_dense(sparse_dense, "csr")
        same = CsrMatrix(
            csr.indptr.astype(np.int32), csr.indices.astype(np.int16),
            csr.values * 2.0, csr.shape,
        )
        assert structure_digest(same) == structure_digest(csr)
        # its own representation: stored entries, not "!= 0"
        assert structure_digest(csr) != structure_digest(sparse_dense)
        wider = CsrMatrix(csr.indptr, csr.indices, csr.values, (6, 11))
        assert structure_digest(wider) != structure_digest(csr)
        swapped = csr.indices.copy()
        lo = int(csr.indptr[np.argmax(csr.row_nnz() > 1)])
        swapped[[lo, lo + 1]] = swapped[[lo + 1, lo]]
        assert structure_digest(
            CsrMatrix(csr.indptr, swapped, csr.values, csr.shape)
        ) != structure_digest(csr)

    def test_is_32_bytes(self, sparse_dense):
        digest = structure_digest(sparse_dense)
        assert isinstance(digest, bytes) and len(digest) == 32
