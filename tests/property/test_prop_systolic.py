"""Property tests: the systolic array computes exact GEMMs cycle by cycle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import PIPE_OVERHEAD
from tests.oracles.clock import os_tile


@st.composite
def tiles(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((m, k)).astype(np.float32),
        rng.standard_normal((k, n)).astype(np.float32),
    )


@given(tiles())
@settings(max_examples=40, deadline=None)
def test_cycle_by_cycle_equals_matmul(operands):
    a, b = operands
    engine = Accelerator(tpu_like(num_pes=64)).systolic
    out, events = os_tile(a, b, engine.dim)
    assert np.allclose(out, a @ b, atol=1e-3)
    assert events.clocks + PIPE_OVERHEAD == engine.tile_cycles(
        a.shape[0], a.shape[1], b.shape[1]
    )


@given(tiles())
@settings(max_examples=40, deadline=None)
def test_run_gemm_functional(operands):
    a, b = operands
    engine = Accelerator(tpu_like(num_pes=16)).systolic
    out, result = engine.run_gemm(a, b)
    assert np.allclose(out, a @ b, atol=1e-3)
    assert result.macs == a.shape[0] * a.shape[1] * b.shape[1]
    assert result.cycles > 0


@given(st.integers(1, 16), st.integers(1, 16), st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_tile_cycles_monotone_in_every_dim(m, n, k):
    engine = Accelerator(tpu_like(num_pes=256)).systolic
    base = engine.tile_cycles(m, k, n)
    assert engine.tile_cycles(m, k + 1, n) > base
    if m < 16:
        assert engine.tile_cycles(m + 1, k, n) > base
