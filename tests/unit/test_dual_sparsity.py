"""SIGMA's dual-sided sparsity: sparse weights AND sparse activations."""

import numpy as np
import pytest

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import MappingError


def _controller(num_ms=32, bw=8):
    return Accelerator(sigma_like(num_ms=num_ms, bandwidth=bw)).sparse_controller


def test_dense_streaming_matches_default(rng):
    stationary = uniform_sparse_matrix(8, 16, 0.5, seed=1)
    dense_b = rng.standard_normal((16, 12)).astype(np.float32)
    dense_b[dense_b == 0] = 1.0  # ensure fully dense
    default = _controller().run_spmm(stationary, 12)
    explicit = _controller().run_spmm(stationary, 12, streaming=dense_b)
    assert explicit.cycles == default.cycles
    assert explicit.effective_macs == default.effective_macs


def test_sparse_activations_cut_compute_and_cycles(rng):
    stationary = uniform_sparse_matrix(8, 32, 0.5, seed=2)
    sparse_b = uniform_sparse_matrix(32, 16, 0.7, seed=3)
    dense = _controller().run_spmm(stationary, 16)
    dual = _controller().run_spmm(stationary, 16, streaming=sparse_b)
    assert dual.effective_macs < dense.effective_macs
    assert dual.cycles <= dense.cycles


def test_effective_macs_counts_pairwise_nonzeros(rng):
    stationary = uniform_sparse_matrix(6, 10, 0.4, seed=4)
    streaming = uniform_sparse_matrix(10, 8, 0.6, seed=5)
    result = _controller().run_spmm(stationary, 8, streaming=streaming)
    expected = int(
        ((stationary != 0).astype(int) @ (streaming != 0).astype(int)).sum()
    )
    assert result.effective_macs == expected


def test_dual_sided_timing_never_decompresses_the_stationary_operand(monkeypatch):
    """``effective_macs`` is the sum of the rounds' multiplications; it
    used to be an M x K x N integer product over ``csr.to_dense()``."""
    from repro.tensors.sparse import CsrMatrix

    def poisoned(self):
        raise AssertionError("run_spmm(streaming=) decompressed its operand")

    monkeypatch.setattr(CsrMatrix, "to_dense", poisoned)
    stationary = uniform_sparse_matrix(6, 10, 0.4, seed=4)
    streaming = uniform_sparse_matrix(10, 8, 0.6, seed=5)
    result = _controller().run_spmm(stationary, 8, streaming=streaming)
    assert result.effective_macs == int(
        ((stationary != 0).astype(int) @ (streaming != 0).astype(int)).sum()
    )


def test_mn_activity_tracks_effective_macs(rng):
    ctrl = _controller()
    stationary = uniform_sparse_matrix(6, 16, 0.5, seed=6)
    streaming = uniform_sparse_matrix(16, 8, 0.5, seed=7)
    result = ctrl.run_spmm(stationary, 8, streaming=streaming)
    assert ctrl.mn.counters["mn_multiplications"] == result.effective_macs


def test_all_zero_activations_still_stream(rng):
    stationary = uniform_sparse_matrix(4, 8, 0.3, seed=8)
    zeros = np.zeros((8, 6), dtype=np.float32)
    result = _controller().run_spmm(stationary, 6, streaming=zeros)
    assert result.effective_macs == 0
    assert result.cycles > 0  # columns still take >= 1 cycle each


def test_shape_validation(rng):
    stationary = uniform_sparse_matrix(4, 8, 0.3, seed=9)
    with pytest.raises(MappingError, match="n_cols"):
        _controller().run_spmm(stationary, 6, streaming=np.zeros((8, 5)))
    with pytest.raises(MappingError, match="K dimension"):
        _controller().run_spmm(stationary, 6, streaming=np.zeros((9, 6)))


def test_accelerator_spmm_dual_sparsity_flag(rng):
    a = uniform_sparse_matrix(8, 16, 0.6, seed=10)
    b = uniform_sparse_matrix(16, 8, 0.6, seed=11)

    acc_dense = Accelerator(sigma_like(32, 8))
    out = acc_dense.run_spmm(a, b)
    assert np.allclose(out, a @ b, atol=1e-4)

    acc_dual = Accelerator(sigma_like(32, 8))
    out_dual = acc_dual.run_spmm(a, b, sparse_streaming=True)
    assert np.allclose(out_dual, a @ b, atol=1e-4)  # function unchanged
    dense_layer = acc_dense.report.layers[0]
    dual_layer = acc_dual.report.layers[0]
    assert dual_layer.macs < dense_layer.macs  # but effective work shrinks
