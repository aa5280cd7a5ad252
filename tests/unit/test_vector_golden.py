"""Golden fixtures: hand-computed cycle/counter tables for canonical shapes.

The differential suite (``tests/differential/test_vector_equivalence.py``)
proves the vector engine agrees with the cycle-stepped reference; this
file proves *both* agree with the model itself. Every expected number
below is derived by hand from the documented formulas — the per-tile
wavefront span, the per-tile activity counters of
``SystolicEngine._account_tile``, and the DRAM/GB accounting of
``_account_dram`` — so a regression in either engine (or an accidental
"agreeing" change to both) fails against arithmetic, not against a
recorded blob.

Three canonical shapes, each run in CYCLE and VECTOR mode:

1. a 1x1 convolution (im2col degenerates to a plain GEMM, one full tile);
2. a skewed weight-stationary GEMM (k < dim, preload dominates);
3. an OS GEMM whose edge tiles underfill the array (all four tile
   classes — full, row-remainder, column-remainder, corner — appear).
"""

import numpy as np
import pytest

from repro.config import EngineMode, tpu_like
from repro.config.hardware import Dataflow
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import tile_classes

MODES = (EngineMode.CYCLE, EngineMode.VECTOR)


@pytest.fixture(autouse=True)
def _pin_configured_mode(monkeypatch):
    """Both engines must hit the hand-computed tables; don't let a
    CI-level ``STONNE_ENGINE_MODE`` override collapse the comparison."""
    from repro.engine.systolic import ENGINE_MODE_ENV

    monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)


def _accelerator(mode, **overrides):
    return Accelerator(tpu_like(num_pes=16, **overrides).with_updates(
        engine_mode=mode
    ))


def _counter_tables(acc):
    engine = acc.systolic
    return (
        engine.counters.as_dict(),
        engine.gb.counters.as_dict(),
        engine.dram.counters.as_dict(),
    )


# ---------------------------------------------------------------------------
# shape 1: 1x1 convolution -> single full 4x8x4 tile
# ---------------------------------------------------------------------------
# weights (K=4, C=8, 1, 1), activations (1, 8, 2, 2) on a 4x4 OS array:
# im2col gives GEMM m=K=4, k=C*R*S=8, n=N*X'*Y'=4 -> one tile (4, 8, 4).
#   cycles   = k + m + n - 2 + PIPE_OVERHEAD = 8+4+4-2+4        = 18
#   macs     = 4*8*4                                            = 128
#   hops     = tm*k*(tn-1) + k*tn*(tm-1) = 4*8*3 + 8*4*3        = 192
#   dn wire  = tm*k + k*tn = 32 + 32                            = 64
#   dram     = (m*k + k*n) reads + m*n writes @ 1 B (FP8)       = 64 + 16
#   transfer = ceil(80/512) = 1 < 18 compute -> no stall
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_golden_1x1_conv(mode):
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((4, 8, 1, 1)).astype(np.float32)
    activations = rng.standard_normal((1, 8, 2, 2)).astype(np.float32)

    acc = _accelerator(mode)
    acc.run_conv(weights, activations)

    layer = acc.report.layers[-1]
    assert layer.cycles == 18
    assert layer.macs == 128
    assert layer.outputs == 16
    assert layer.multiplier_utilization == 128 / (16 * 18)

    engine_counters, gb_counters, dram_counters = _counter_tables(acc)
    assert engine_counters == {
        "ctrl_cycles": 18,
        "dn_wire_traversals": 64,
        "mn_forwarding_hops": 192,
        "mn_multiplications": 128,
        "rn_accumulator_ops": 128,
        "rn_outputs_written": 16,
    }
    assert gb_counters == {"gb_fills": 64, "gb_reads": 64, "gb_writes": 16}
    assert dram_counters == {
        "dram_bytes_read": 64,
        "dram_bytes_written": 16,
        "dram_row_hits": 1,
        "dram_row_misses": 1,
    }


# ---------------------------------------------------------------------------
# shape 2: skewed weight-stationary GEMM -> single 5x3x2 stream
# ---------------------------------------------------------------------------
# m=5, k=3, n=2 on a 4x4 WS array: the 3x2 weight block is one tile and
# all 5 activation rows stream through it.
#   cycles   = k + (m + k + n - 2) + PIPE_OVERHEAD = 3 + 8 + 4  = 15
#   macs     = 5*3*2                                            = 30
#   hops     = 5*3*(2-1) + 3*2*(5-1) = 15 + 24                  = 39
#   dn wire  = 5*3 + 3*2                                        = 21
#   dram     = (15 + 6) reads + 10 writes @ 1 B -> transfer 1, no stall
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_golden_skewed_ws_gemm(mode):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 3)).astype(np.float32)
    b = rng.standard_normal((3, 2)).astype(np.float32)

    acc = _accelerator(mode, dataflow=Dataflow.WEIGHT_STATIONARY)
    out, result = acc.systolic.run_gemm(a, b)

    assert np.allclose(out, a @ b, atol=1e-4)
    assert result.cycles == 15
    assert result.macs == 30
    assert result.outputs == 10
    assert result.tiles == 1
    assert result.dram_stall_cycles == 0
    assert result.multiplier_utilization == 30 / (16 * 15)

    engine_counters, gb_counters, dram_counters = _counter_tables(acc)
    assert engine_counters == {
        "ctrl_cycles": 15,
        "dn_wire_traversals": 21,
        "mn_forwarding_hops": 39,
        "mn_multiplications": 30,
        "rn_accumulator_ops": 30,
        "rn_outputs_written": 10,
    }
    assert gb_counters == {"gb_fills": 21, "gb_reads": 21, "gb_writes": 10}
    assert dram_counters == {
        "dram_bytes_read": 21,
        "dram_bytes_written": 10,
        "dram_row_hits": 1,
        "dram_row_misses": 1,
    }


# ---------------------------------------------------------------------------
# shape 3: OS GEMM with edge tiles underfilling the array
# ---------------------------------------------------------------------------
# m=5, k=2, n=6 on a 4x4 OS array -> all four tile classes appear once:
#   (4,2,4): 2+4+4-2+4 = 12      (4,2,2): 2+4+2-2+4 = 10
#   (1,2,4): 2+1+4-2+4 =  9      (1,2,2): 2+1+2-2+4 =  7
#   cycles = 12+10+9+7                                          = 38
#   macs   = 5*2*6                                              = 60
#   hops   = 48 + 20 + 6 + 2                                    = 76
#     [tm*k*(tn-1)+k*tn*(tm-1): (4,2,4)->24+24, (4,2,2)->8+12,
#      (1,2,4)->6+0, (1,2,2)->2+0]
#   dn wire = (8+8) + (8+4) + (2+8) + (2+4)                     = 44
#   dram    = (10 + 12) reads + 30 writes @ 1 B -> transfer 1, no stall
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_golden_edge_tiles_os_gemm(mode):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 2)).astype(np.float32)
    b = rng.standard_normal((2, 6)).astype(np.float32)

    acc = _accelerator(mode)
    out, result = acc.systolic.run_gemm(a, b)

    assert np.allclose(out, a @ b, atol=1e-4)
    assert result.cycles == 38
    assert result.macs == 60
    assert result.outputs == 30
    assert result.tiles == 4
    assert result.dram_stall_cycles == 0
    assert result.multiplier_utilization == 60 / (16 * 38)

    engine_counters, gb_counters, dram_counters = _counter_tables(acc)
    assert engine_counters == {
        "ctrl_cycles": 38,
        "dn_wire_traversals": 44,
        "mn_forwarding_hops": 76,
        "mn_multiplications": 60,
        "rn_accumulator_ops": 60,
        "rn_outputs_written": 30,
    }
    assert gb_counters == {"gb_fills": 22, "gb_reads": 44, "gb_writes": 30}
    assert dram_counters == {
        "dram_bytes_read": 22,
        "dram_bytes_written": 30,
        "dram_row_hits": 1,
        "dram_row_misses": 1,
    }


def test_tile_class_enumeration_matches_hand_partition():
    """The closed form sees exactly the reference loop's tile classes."""
    engine = _accelerator(EngineMode.VECTOR).systolic
    assert tile_classes(engine, 5, 2, 6) == [
        (4, 2, 4, 1), (4, 2, 2, 1), (1, 2, 4, 1), (1, 2, 2, 1),
    ]
    # divisible extents collapse to one full class with a multiplicity
    assert tile_classes(engine, 8, 3, 12) == [(4, 3, 4, 6)]
