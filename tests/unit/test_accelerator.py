"""Top-level Accelerator: composition, operations and reporting."""

import numpy as np
import pytest

from repro.config import maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError, MappingError


class TestComposition:
    def test_flexible_components(self, small_maeri):
        acc = Accelerator(small_maeri)
        assert acc.dense_controller is not None
        assert acc.systolic is None
        assert acc.sparse_controller is None
        assert len(acc.components) == 6

    def test_systolic_components(self, small_tpu):
        acc = Accelerator(small_tpu)
        assert acc.systolic is not None
        assert acc.dense_controller is None

    def test_sparse_components(self, small_sigma):
        acc = Accelerator(small_sigma)
        assert acc.sparse_controller is not None

    def test_reset(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        acc.run_gemm(
            rng.standard_normal((4, 8)).astype(np.float32),
            rng.standard_normal((8, 4)).astype(np.float32),
        )
        acc.reset()
        assert acc.report.total_cycles == 0
        assert all(len(c.counters) == 0 for c in acc.components)


class TestConv:
    def test_grouped_conv_functional(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        w = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        x = rng.standard_normal((1, 4, 6, 6)).astype(np.float32)
        out = acc.run_conv(w, x, groups=4)
        for g in range(4):
            for i in range(4):
                for j in range(4):
                    expected = np.sum(w[g, 0] * x[0, g, i : i + 3, j : j + 3])
                    assert out[0, g, i, j] == pytest.approx(expected, abs=1e-3)

    def test_padding_and_stride(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        w = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        x = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
        out = acc.run_conv(w, x, stride=2, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_conv_on_all_architectures(self, rng):
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        outputs = []
        for config in (tpu_like(16), maeri_like(32, 8), sigma_like(32, 16)):
            acc = Accelerator(config)
            outputs.append(acc.run_conv(w, x))
            assert acc.report.total_cycles > 0
        assert np.allclose(outputs[0], outputs[1], atol=1e-3)
        assert np.allclose(outputs[0], outputs[2], atol=1e-3)

    def test_shape_validation(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        with pytest.raises(ConfigurationError):
            acc.run_conv(rng.standard_normal((4, 2, 3, 3)),
                         rng.standard_normal((1, 3, 6, 6)))
        with pytest.raises(ConfigurationError):
            acc.run_conv(rng.standard_normal((4, 3, 3)),
                         rng.standard_normal((1, 3, 6, 6)))


class TestGemmAndSpmm:
    def test_gemm_shape_validation(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        with pytest.raises(ConfigurationError):
            acc.run_gemm(rng.standard_normal((4, 8)), rng.standard_normal((7, 4)))

    def test_spmm_requires_sparse_controller(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        with pytest.raises(MappingError):
            acc.run_spmm(rng.standard_normal((4, 8)), rng.standard_normal((8, 4)))

    def test_gemm_on_sparse_fabric_times_as_spmm(self, small_sigma, rng):
        acc = Accelerator(small_sigma)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        out = acc.run_gemm(a, b)
        assert np.allclose(out, a @ b, atol=1e-4)
        assert acc.report.layers[0].kind == "gemm"

    def test_spmm_extra_stats(self, small_sigma, rng):
        acc = Accelerator(small_sigma)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        a[np.abs(a) < 0.5] = 0
        acc.run_spmm(a, rng.standard_normal((8, 4)).astype(np.float32))
        layer = acc.report.layers[0]
        assert "rounds" in layer.extra
        assert "mapping_utilization" in layer.extra


class TestMaxPool:
    def test_functional(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = acc.run_maxpool(x, 2)
        assert out.shape == (2, 3, 4, 4)
        assert out[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_counted_but_no_macs(self, small_maeri, rng):
        acc = Accelerator(small_maeri)
        acc.run_maxpool(rng.standard_normal((1, 2, 4, 4)).astype(np.float32), 2)
        layer = acc.report.layers[0]
        assert layer.kind == "maxpool"
        assert layer.macs == 0
        assert layer.cycles > 0
