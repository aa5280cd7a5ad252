"""Cycle-exact fast-forwarding honesty tests.

ARCHITECTURE.md promises that the DN's ``skip_cycles(n)`` leaves exactly
the queue and busy count that ``n`` clocks of the reference read ports
(``tests/oracles/clock.py``) would, and that the systolic engine's
fast-forwarded tile schedule equals the register-transfer loop there.
"""

import numpy as np
import pytest

from repro.config import tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import PIPE_OVERHEAD
from repro.noc.distribution import BenesNetwork, PointToPointNetwork, TreeNetwork
from tests.oracles.clock import ReadPorts, os_tile


def _stepwise(dn, clocks):
    """Clock ``dn``'s queued slots out of fresh read ports one at a time."""
    ports = ReadPorts(dn.bandwidth)
    ports.post(dn.pending_slots)
    for _ in range(clocks):
        ports.clock()
    return ports


@pytest.mark.parametrize("cls", [TreeNetwork, BenesNetwork, PointToPointNetwork])
@pytest.mark.parametrize("work", [(3, 6), (17, 17), (1, 16)])
def test_dn_skip_equals_stepwise(cls, work):
    unique, dests = work
    batched = cls(num_leaves=32, bandwidth=4)
    batched.enqueue(unique, dests)

    stepwise = _stepwise(batched, 7)
    batched.skip_cycles(7)

    assert stepwise.pending == batched.pending_slots
    assert batched.current_cycle == 7
    assert stepwise.busy == batched.counters["dn_busy_cycles"]


def test_dn_skip_with_interleaved_enqueues():
    stepwise = ReadPorts(bandwidth=2)
    batched = TreeNetwork(num_leaves=16, bandwidth=2)
    for unique, dests, clocks in ((5, 5, 2), (4, 8, 4)):
        queued = batched.pending_slots
        batched.enqueue(unique, dests)
        stepwise.post(batched.pending_slots - queued)
        batched.skip_cycles(clocks)
        for _ in range(clocks):
            stepwise.clock()
    assert stepwise.pending == batched.pending_slots
    assert stepwise.busy == batched.counters["dn_busy_cycles"]


def test_systolic_fast_forward_matches_rtl_loop(rng):
    engine = Accelerator(tpu_like(num_pes=64)).systolic
    a = rng.standard_normal((6, 9)).astype(np.float32)
    b = rng.standard_normal((9, 5)).astype(np.float32)
    looped_out, events = os_tile(a, b, engine.dim)
    assert events.clocks + PIPE_OVERHEAD == engine.tile_cycles(6, 9, 5)
    assert np.allclose(looped_out, a @ b, atol=1e-4)


def test_dense_controller_small_case_hand_check():
    """A layer small enough to recompute by hand.

    1x1 conv, C=4, K=2, 2x2 output, 8-MS fabric at bandwidth 2, tile
    mapping the full dot (cs=4) with both filters (nc=2): one step per
    pixel, inputs unique per step = 4 (multicast across the 2 filters),
    weights 8 loaded once, so each step stalls ceil(4/2)=2 cycles.
    """
    from repro.config import ConvLayerSpec, TileConfig, maeri_like

    layer = ConvLayerSpec(r=1, s=1, c=4, k=2, x=2, y=2)
    tile = TileConfig(t_c=4, t_k=2)
    acc = Accelerator(maeri_like(num_ms=8, bandwidth=2))
    result = acc.dense_controller.run_conv(layer, tile)

    setup = 4
    weight_load = 4          # 8 weight elements at bandwidth 2
    steps = 4 * 2            # 4 pixel steps x 2 stall cycles each
    fill_drain = 1 + 1 + 3   # DN latency + multiply + ART(4)+acc latency
    assert result.cycles == setup + weight_load + steps + fill_drain
    assert result.macs == layer.num_macs
    assert acc.mn.counters["mn_multiplications"] == layer.num_macs
