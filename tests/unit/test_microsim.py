"""The reference clock loop vs the fast-forwarding dense controller: the
cycle counts must agree exactly, folded layers included (the loop lives
in ``tests/oracles/clock.py``)."""

import pytest

from repro.config import ConvLayerSpec, TileConfig, maeri_like
from repro.config.hardware import MultiplierKind
from repro.engine.accelerator import Accelerator
from tests.oracles.clock import run_dense

CASES = [
    # (layer, tile, config)
    (
        ConvLayerSpec(r=3, s=3, c=2, k=4, x=7, y=7),
        TileConfig(t_r=3, t_s=3, t_c=2, t_k=1),
        maeri_like(32, 4),
    ),
    (
        ConvLayerSpec(r=3, s=3, c=2, k=4, x=7, y=7),
        TileConfig(t_r=3, t_s=3, t_c=2, t_k=1),
        maeri_like(32, 32),
    ),
    (
        ConvLayerSpec(r=1, s=1, c=8, k=8, x=4, y=4),
        TileConfig(t_c=8, t_k=2, t_y=2),
        maeri_like(64, 8),
    ),
    (
        ConvLayerSpec(r=2, s=2, c=4, k=2, g=2, x=6, y=6),
        TileConfig(t_r=2, t_s=2, t_c=4, t_g=1, t_k=1),
        maeri_like(32, 8),
    ),
    (
        ConvLayerSpec(r=3, s=3, c=2, k=4, n=2, x=7, y=7),
        TileConfig(t_r=3, t_s=3, t_c=2, t_n=2),
        maeri_like(64, 8),
    ),
]


def compare_with_controller(config, layer, tile):
    """(clock-loop cycles, controller cycles) for the same mapping."""
    controller = Accelerator(config).dense_controller
    return run_dense(config, layer, tile).cycles, controller.run_conv(layer, tile).cycles


@pytest.mark.parametrize("layer, tile, config", CASES)
def test_microsim_matches_controller(layer, tile, config):
    micro_cycles, controller_cycles = compare_with_controller(config, layer, tile)
    assert micro_cycles == controller_cycles


def test_microsim_covers_folding_layers():
    layer = ConvLayerSpec(r=3, s=3, c=8, k=2, x=5, y=5)
    tile = TileConfig(t_r=3, t_s=3, t_c=2)  # folds = 4
    assert tile.folds_for(layer) == 4
    # psums held in the ART's accumulators, or round-tripping the GB
    for accumulators in (True, False):
        config = maeri_like(32, 8, accumulation_buffer=accumulators)
        micro, controller = compare_with_controller(config, layer, tile)
        assert micro == controller


def test_microsim_reports_fifo_statistics():
    layer = ConvLayerSpec(r=3, s=3, c=2, k=2, x=5, y=5)
    tile = TileConfig(t_r=3, t_s=3, t_c=2)
    result = run_dense(maeri_like(32, 8), layer, tile)
    assert result.fifo_pushes == result.steps
    assert result.fifo_peak_occupancy >= 1


def test_microsim_without_forwarding():
    layer = ConvLayerSpec(r=3, s=3, c=2, k=4, x=7, y=7)
    tile = TileConfig(t_r=3, t_s=3, t_c=2)
    config = maeri_like(32, 8, multiplier=MultiplierKind.DISABLED)
    micro_cycles, controller_cycles = compare_with_controller(config, layer, tile)
    assert micro_cycles == controller_cycles
