"""The Table IV reference accelerator presets."""

import pytest

from repro.config import (
    eyeriss_like,
    maeri_like,
    preset,
    sigma_like,
    snapea_like,
    tpu_like,
)
from repro.config.hardware import (
    ControllerKind,
    DistributionKind,
    MultiplierKind,
    ReductionKind,
)
from repro.errors import ConfigurationError


def test_tpu_like_matches_table_iv():
    config = tpu_like(num_pes=256)
    assert config.controller is ControllerKind.DENSE
    assert config.distribution is DistributionKind.POINT_TO_POINT
    assert config.multiplier is MultiplierKind.LINEAR
    assert config.reduction is ReductionKind.LINEAR
    assert config.is_systolic
    assert config.systolic_dim == 16


def test_tpu_defaults_to_full_bandwidth():
    config = tpu_like(num_pes=64)
    assert config.dn_bandwidth == 64


def test_maeri_like_matches_table_iv():
    config = maeri_like(num_ms=256, bandwidth=128)
    assert config.controller is ControllerKind.DENSE
    assert config.distribution is DistributionKind.TREE
    assert config.multiplier is MultiplierKind.LINEAR
    assert config.reduction is ReductionKind.ART
    assert config.dn_bandwidth == 128


def test_sigma_like_matches_table_iv():
    config = sigma_like(num_ms=256, bandwidth=128)
    assert config.controller is ControllerKind.SPARSE
    assert config.distribution is DistributionKind.BENES
    assert config.multiplier is MultiplierKind.DISABLED
    assert config.reduction is ReductionKind.FAN
    assert config.is_sparse


def test_snapea_like_is_a_small_dense_fabric():
    config = snapea_like()
    assert config.num_ms == 64
    assert config.dn_bandwidth == 64
    assert config.controller is ControllerKind.SNAPEA


def test_eyeriss_like_pairs_multicast_with_linear_reduction():
    config = eyeriss_like(num_ms=64, bandwidth=16)
    assert config.distribution is DistributionKind.TREE
    assert config.reduction is ReductionKind.LINEAR
    assert config.controller is ControllerKind.DENSE


def test_eyeriss_like_runs_a_convolution(rng):
    import numpy as np

    from repro.engine.accelerator import Accelerator

    acc = Accelerator(eyeriss_like(num_ms=64, bandwidth=16))
    w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    acc.run_conv(w, x)
    assert acc.report.total_cycles > 0


def test_presets_accept_overrides():
    config = maeri_like(num_ms=64, bandwidth=16, gb_size_kb=256)
    assert config.gb_size_kb == 256


def test_tpu_rejects_non_square():
    with pytest.raises(ConfigurationError):
        tpu_like(num_pes=128).systolic_dim


def test_preset_by_name():
    assert preset("tpu", 64) == tpu_like(num_pes=64)
    assert preset("tpu", 64, 16) == tpu_like(num_pes=64, bandwidth=16)
    assert preset("maeri") == maeri_like(num_ms=256, bandwidth=128)
    assert preset("sigma", 32, 8) == sigma_like(num_ms=32, bandwidth=8)
    assert preset("eyeriss", 2) == eyeriss_like(num_ms=2, bandwidth=1)
    with pytest.raises(ConfigurationError, match="npu9000"):
        preset("npu9000")
