"""Sparse memory controller: packing, folding and data-dependent timing."""

import numpy as np
import pytest

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import MappingError
from repro.memory.sparse_controller import (
    RowChunk,
    natural_order_rounds,
    pack_rows_in_order,
)


def _controller(num_ms=32, bw=16):
    return Accelerator(sigma_like(num_ms=num_ms, bandwidth=bw)).sparse_controller


class TestPacking:
    def test_dense_rows_tile_exactly(self):
        rounds = natural_order_rounds(np.array([8, 8, 8, 8]), capacity=16)
        assert [len(r) for r in rounds] == [2, 2]

    def test_row_order_preserved(self):
        rounds = natural_order_rounds(np.array([10, 10, 4]), capacity=16)
        assert [c.row for c in rounds[0]] == [0, 2] or [c.row for c in rounds[0]] == [0]

    def test_zero_rows_skipped(self):
        rounds = natural_order_rounds(np.array([4, 0, 4]), capacity=16)
        mapped = {c.row for chunks in rounds for c in chunks}
        assert mapped == {0, 2}

    def test_oversized_row_folds(self):
        rounds = natural_order_rounds(np.array([40]), capacity=16)
        chunks = [c for r in rounds for c in r]
        assert sum(c.length for c in chunks) == 40
        assert chunks[-1].is_final and not chunks[0].is_final

    def test_fold_remainder_shares_round(self):
        rounds = natural_order_rounds(np.array([20, 8]), capacity=16)
        # remainder of row 0 (4 nnz) packs with row 1 (8 nnz)
        last = rounds[-1]
        assert {c.row for c in last} == {0, 1}

    def test_custom_order(self):
        rounds = pack_rows_in_order(np.array([4, 8, 12]), 16, order=[2, 1, 0])
        assert rounds[0][0].row == 2

    def test_chunk_requires_positive_length(self):
        with pytest.raises(MappingError):
            RowChunk(row=0, start=0, length=0, is_final=True)


class TestRunSpmm:
    def test_effective_macs(self, rng):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(8, 16, 0.5, seed=1)
        result = ctrl.run_spmm(matrix, n_cols=10)
        assert result.effective_macs == np.count_nonzero(matrix) * 10
        assert result.dense_macs == 8 * 16 * 10
        assert result.ops_saved_fraction == pytest.approx(
            1 - np.count_nonzero(matrix) / (8 * 16)
        )

    def test_sparser_is_faster(self):
        ctrl_dense = _controller()
        ctrl_sparse = _controller()
        dense = uniform_sparse_matrix(16, 16, 0.0, seed=1)
        sparse = uniform_sparse_matrix(16, 16, 0.8, seed=1)
        assert (
            ctrl_sparse.run_spmm(sparse, 32).cycles
            < ctrl_dense.run_spmm(dense, 32).cycles
        )

    def test_round_stats_consistent(self):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(12, 16, 0.4, seed=2)
        result = ctrl.run_spmm(matrix, 8)
        assert result.rounds == len(result.round_stats)
        assert sum(s.nnz for s in result.round_stats) == np.count_nonzero(matrix)
        assert all(0 < s.utilization <= 1 for s in result.round_stats)

    def test_utilization_bounds(self):
        ctrl = _controller()
        result = ctrl.run_spmm(uniform_sparse_matrix(8, 16, 0.3, seed=3), 8)
        assert 0 < result.mapping_utilization <= 1
        assert 0 < result.multiplier_utilization <= 1

    def test_activity_counters(self):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(8, 16, 0.5, seed=4)
        result = ctrl.run_spmm(matrix, 10)
        assert ctrl.mn.counters["mn_multiplications"] == result.effective_macs
        assert ctrl.gb.counters["gb_writes"] >= result.outputs

    def test_folded_rows_merge_psums(self):
        ctrl = _controller(num_ms=32)
        wide = uniform_sparse_matrix(1, 128, 0.0, seed=5)  # 128 nnz > 32 MS
        result = ctrl.run_spmm(wide, 4)
        assert result.rounds == 4
        assert ctrl.rn.counters["rn_accumulator_ops"] > 0

    def test_bitmap_and_csr_inputs_agree(self, rng):
        from repro.tensors.sparse import from_dense

        dense = uniform_sparse_matrix(8, 16, 0.6, seed=6)
        a = _controller().run_spmm(from_dense(dense, "bitmap"), 8)
        b = _controller().run_spmm(from_dense(dense, "csr"), 8)
        c = _controller().run_spmm(dense, 8)
        assert a.cycles == b.cycles == c.cycles

    def test_rejects_bad_n_cols(self):
        with pytest.raises(MappingError):
            _controller().run_spmm(np.ones((4, 4), dtype=np.float32), 0)

    def test_rejects_non_2d(self):
        with pytest.raises(MappingError):
            _controller().run_spmm(np.ones((2, 2, 2), dtype=np.float32), 4)


class TestScheduleValidation:
    def test_incomplete_coverage_rejected(self):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(4, 8, 0.0, seed=7)

        def bad_builder(row_nnz, capacity):
            return [[RowChunk(0, 0, int(row_nnz[0]), True)]]  # rows 1-3 missing

        with pytest.raises(MappingError, match="covers"):
            ctrl.run_spmm(matrix, 4, bad_builder)

    def test_over_capacity_round_rejected(self):
        ctrl = _controller(num_ms=32)
        matrix = uniform_sparse_matrix(4, 16, 0.0, seed=8)

        def bad_builder(row_nnz, capacity):
            return [
                [RowChunk(r, 0, 16, True) for r in range(4)]  # 64 > 32 MSs
            ]

        with pytest.raises(MappingError, match="onto"):
            ctrl.run_spmm(matrix, 4, bad_builder)

    def test_empty_round_rejected(self):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(2, 8, 0.0, seed=9)

        def bad_builder(row_nnz, capacity):
            return [[], [RowChunk(0, 0, 8, True)], [RowChunk(1, 0, 8, True)]]

        with pytest.raises(MappingError, match="empty"):
            ctrl.run_spmm(matrix, 4, bad_builder)

    def test_duplicate_row_rejected(self):
        ctrl = _controller()
        matrix = uniform_sparse_matrix(2, 8, 0.0, seed=10)

        def bad_builder(row_nnz, capacity):
            return [
                [RowChunk(0, 0, 8, True)],
                [RowChunk(0, 0, 8, True)],  # row 0 again
                [RowChunk(1, 0, 8, True)],
            ]

        with pytest.raises(
            MappingError, match="schedule covers 16 of row 0's 8 nonzeros"
        ):
            ctrl.run_spmm(matrix, 4, bad_builder)

    def test_messages_unchanged(self):
        """The exact texts, now that validation reads the plan's table."""
        matrix = uniform_sparse_matrix(4, 16, 0.0, seed=8)
        cases = {
            "round maps 64 nonzeros onto 32 MSs": [
                [RowChunk(r, 0, 16, True) for r in range(4)]
            ],
            "a scheduling round cannot be empty": [
                [RowChunk(0, 0, 16, True)], [],
            ],
            "schedule covers 0 of row 1's 16 nonzeros": [
                [RowChunk(0, 0, 16, True)]
            ],
        }
        for message, rounds in cases.items():
            with pytest.raises(MappingError, match=message):
                _controller(num_ms=32).run_spmm(
                    matrix, 4, lambda row_nnz, capacity: rounds
                )

    def test_first_offending_round_is_reported(self):
        matrix = uniform_sparse_matrix(4, 16, 0.0, seed=8)
        over = [RowChunk(r, 0, 16, True) for r in range(4)]
        with pytest.raises(MappingError, match="empty"):
            _controller(num_ms=32).run_spmm(
                matrix, 4, lambda row_nnz, capacity: [[], over]
            )
        with pytest.raises(MappingError, match="onto"):
            _controller(num_ms=32).run_spmm(
                matrix, 4, lambda row_nnz, capacity: [over, []]
            )

    def test_chunk_outside_its_row_rejected(self):
        """Coverage adds up, but one chunk reads past its row's nonzeros
        — formerly clamped silently by the slice."""
        matrix = uniform_sparse_matrix(2, 8, 0.0, seed=11)

        def bad_builder(row_nnz, capacity):
            return [
                [RowChunk(0, 0, 4, False), RowChunk(1, 0, 8, True)],
                [RowChunk(0, 6, 4, True)],  # [6, 10) of an 8-nonzero row
            ]

        with pytest.raises(MappingError, match="lies outside row 0's 8"):
            _controller().run_spmm(matrix, 4, bad_builder)

    def test_unknown_row_rejected(self):
        matrix = uniform_sparse_matrix(2, 8, 0.0, seed=12)

        def bad_builder(row_nnz, capacity):
            return [[RowChunk(0, 0, 8, True), RowChunk(1, 0, 8, True)],
                    [RowChunk(2, 0, 8, True)]]

        with pytest.raises(MappingError, match="names row 2"):
            _controller().run_spmm(matrix, 4, bad_builder)


class TestZeroRounds:
    """An all-zero stationary operand schedules nothing."""

    def test_cycles_are_setup_plus_dram_stall(self):
        from repro.memory.sparse_controller import GEMM_SETUP_CYCLES

        ctrl = _controller()
        stalls = []
        original = ctrl._account_dram

        def spy(csr, n_cols, compute_cycles):
            stalls.append(original(csr, n_cols, compute_cycles))
            return stalls[-1]

        ctrl._account_dram = spy
        result = ctrl.run_spmm(np.zeros((6, 16), dtype=np.float32), 5)
        assert result.rounds == 0 and result.round_stats == ()
        assert result.cycles == GEMM_SETUP_CYCLES + stalls[0]
        assert ctrl.counters["ctrl_cycles"] == result.cycles
        assert result.effective_macs == 0
        assert result.mapping_utilization == 0.0
        # no round, so the fabric is never configured
        assert ctrl.mn.counters["mn_reconfigurations"] == 0
        assert ctrl.rn.counters["rn_reconfigurations"] == 0

    def test_ledgers_conserved_through_the_accelerator(self):
        from repro.observability import (
            Observability,
            validate_fabric,
            validate_ledger,
        )

        obs = Observability.create(trace=True, stalls=True, fabric=True)
        acc = Accelerator(sigma_like(num_ms=32, bandwidth=16), observability=obs)
        out = acc.run_spmm(
            np.zeros((6, 16), dtype=np.float32),
            np.ones((16, 5), dtype=np.float32),
        )
        assert not out.any()
        layer = acc.report.layers[0]
        assert layer.extra["rounds"] == 0
        assert validate_ledger(layer.extra["stalls"], layer.cycles) == []
        assert validate_fabric(
            layer.extra["fabric"], layer.counters.as_dict(), layer.cycles
        ) == []
