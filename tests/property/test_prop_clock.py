"""Closed form == clock loop, on every fabric.

Small generated layers run twice: once through production's closed-form
timing (the dense controller, the sparse controller, the systolic engine)
and once through the per-clock loops of ``tests/oracles/clock.py``. The
cycles, every component's counters and the DN slots left queued must be
equal.

Two known disagreements are held apart, each pinned by a strict xfail
below so that the change which fixes it has to flip the mark:

- dual-sided SIGMA rounds enqueue the rounded mean of the per-column
  counts but drain each column's own count, so ``dn_busy_cycles`` and the
  slots left queued differ (ROADMAP 1(c));
- the weight-stationary array charges its forwarding hops with the
  output-stationary formula; its registers move other values (ROADMAP
  1(d)).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import ConvLayerSpec, TileConfig, maeri_like, sigma_like, tpu_like
from repro.config.hardware import (
    Dataflow,
    DistributionKind,
    MultiplierKind,
    ReductionKind,
)
from repro.engine.accelerator import Accelerator
from tests.oracles.clock import counters_of, run_dense, run_sparse, run_systolic

SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _assert_agrees(cycles, acc, pending, run, *, except_dn_queue=False,
                   except_counter=None):
    """Closed form (``cycles``, ``acc``'s components, ``pending``) against
    the clock loop's run."""
    assert cycles == run.cycles
    closed = counters_of(acc.components)
    clocked = run.counters
    if except_dn_queue:
        for counters in (closed, clocked):
            counters[acc.dn.name].pop("dn_busy_cycles", None)
    else:
        assert pending == run.pending_slots
    if except_counter is not None:
        component, name = except_counter
        closed[component].pop(name, None)
        clocked[component].pop(name, None)
    assert closed == clocked


# ---- dense (MAERI) --------------------------------------------------------


@st.composite
def dense_cases(draw):
    num_ms = draw(st.sampled_from([16, 32]))
    config = maeri_like(
        num_ms,
        draw(st.integers(1, 12)),
        rn_bandwidth=draw(st.integers(1, 8)),
        accumulation_buffer=draw(st.booleans()),
        distribution=draw(st.sampled_from(
            [DistributionKind.TREE, DistributionKind.BENES]
        )),
        multiplier=draw(st.sampled_from(list(MultiplierKind))),
        reduction=draw(st.sampled_from(
            [ReductionKind.ART, ReductionKind.FAN, ReductionKind.LINEAR]
        )),
        dataflow=draw(st.sampled_from(list(Dataflow))),
    )
    r, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    layer = ConvLayerSpec(
        r=r, s=s, c=draw(st.integers(1, 6)), k=draw(st.integers(1, 4)),
        g=draw(st.integers(1, 2)), n=draw(st.integers(1, 2)),
        x=r + draw(st.integers(0, 3)), y=s + draw(st.integers(0, 4)),
        stride=draw(st.integers(1, 2)),
    )
    tile = TileConfig(
        t_r=draw(st.integers(1, layer.r)),
        t_s=draw(st.integers(1, layer.s)),
        t_c=draw(st.integers(1, layer.c)),
        t_k=draw(st.integers(1, layer.k)),
        t_g=draw(st.integers(1, layer.g)),
        t_n=draw(st.integers(1, layer.n)),
        t_x=draw(st.integers(1, layer.x_out)),
        t_y=draw(st.integers(1, layer.y_out)),
    )
    assume(tile.multipliers_used <= num_ms)
    return config, layer, tile


def _dense_agrees(config, layer, tile):
    acc = Accelerator(config)
    result = acc.dense_controller.run_conv(layer, tile)
    _assert_agrees(
        result.cycles, acc, acc.dn.pending_slots, run_dense(config, layer, tile)
    )


@given(dense_cases())
@SETTINGS
def test_folded_dense_layers_equal_the_clock_loop(case):
    config, layer, tile = case
    assume(tile.folds_for(layer) > 1)
    _dense_agrees(config, layer, tile)


@given(dense_cases())
@SETTINGS
def test_unfolded_dense_layers_equal_the_clock_loop(case):
    config, layer, tile = case
    assume(tile.folds_for(layer) == 1)
    _dense_agrees(config, layer, tile)


# ---- sparse (SIGMA) --------------------------------------------------------


@st.composite
def sparse_cases(draw, dual):
    num_ms = draw(st.sampled_from([8, 16]))
    config = sigma_like(
        num_ms, draw(st.integers(1, num_ms)),
        rn_bandwidth=draw(st.integers(1, num_ms)),
    )
    m, k, n = draw(st.integers(1, 10)), draw(st.integers(1, 24)), draw(st.integers(1, 5))
    sparsity = st.sampled_from([0.0, 0.3, 0.6, 0.9, 0.99])
    a = uniform_sparse_matrix(m, k, draw(sparsity), seed=draw(st.integers(0, 999)))
    b = uniform_sparse_matrix(k, n, draw(sparsity), seed=draw(st.integers(0, 999)))
    return config, a, b if dual else None, n


def _sparse_run(config, a, b, n):
    acc = Accelerator(config)
    timing = acc.sparse_controller.time_spmm(a, n, streaming=b)
    return timing.cycles, acc, acc.dn.pending_slots, run_sparse(config, a, n, b)


@given(sparse_cases(dual=False))
@SETTINGS
def test_single_sided_sigma_rounds_equal_the_clock_loop(case):
    _assert_agrees(*_sparse_run(*case))


@given(sparse_cases(dual=True))
@SETTINGS
def test_dual_sided_sigma_rounds_equal_the_clock_loop(case):
    cycles, acc, pending, run = _sparse_run(*case)
    # the clock loop drains every column's own count: nothing is left over
    assert run.pending_slots == 0
    _assert_agrees(cycles, acc, pending, run, except_dn_queue=True)


def _pin_case(name):
    """The ``sigma_payload_pin.json`` direct cases (same operands)."""
    if name == "dual_bw1":
        return (
            sigma_like(num_ms=16, bandwidth=1),
            uniform_sparse_matrix(12, 24, 0.6, seed=0),
            uniform_sparse_matrix(24, 6, 0.5, seed=1000),
        )
    b = uniform_sparse_matrix(64, 14, 0.7, seed=26)
    b[:, 4] = 0.0
    return (
        sigma_like(num_ms=32, bandwidth=8),
        uniform_sparse_matrix(24, 64, 0.6, seed=25),
        b,
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(c) phantom DN slots")
def test_dual_bw1_pin_case_equals_the_clock_loop():
    config, a, b = _pin_case("dual_bw1")
    _assert_agrees(*_sparse_run(config, a, b, b.shape[1]))


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(c) per-column DN counts")
def test_dual_pin_case_dn_busy_cycles_equal_the_clock_loop():
    config, a, b = _pin_case("dual")
    _assert_agrees(*_sparse_run(config, a, b, b.shape[1]))


# ---- systolic (TPU) ---------------------------------------------------------


@st.composite
def systolic_cases(draw, dataflow):
    config = tpu_like(
        num_pes=draw(st.sampled_from([4, 16, 64])), dataflow=dataflow
    )
    m, k, n = (draw(st.integers(1, 10)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    return (
        config,
        rng.standard_normal((m, k)).astype(np.float32),
        rng.standard_normal((k, n)).astype(np.float32),
    )


def _systolic_run(config, a, b):
    acc = Accelerator(config)
    result = acc.systolic.time_gemm(a.shape[0], a.shape[1], b.shape[1])
    run = run_systolic(config, a, b)
    assert np.allclose(run.output, a @ b, atol=1e-4)
    return result.cycles, acc, 0, run


@given(systolic_cases(Dataflow.OUTPUT_STATIONARY))
@SETTINGS
def test_output_stationary_array_equals_the_register_loop(case):
    _assert_agrees(*_systolic_run(*case))


@given(systolic_cases(Dataflow.WEIGHT_STATIONARY))
@SETTINGS
def test_weight_stationary_array_equals_the_register_loop(case):
    _assert_agrees(
        *_systolic_run(*case),
        except_counter=("systolic", "mn_forwarding_hops"),
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP 1(d) WS forwarding hops")
def test_weight_stationary_forwarding_hops_equal_the_register_loop():
    config = tpu_like(num_pes=16, dataflow=Dataflow.WEIGHT_STATIONARY)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((9, 5)).astype(np.float32)
    b = rng.standard_normal((5, 7)).astype(np.float32)
    _assert_agrees(*_systolic_run(config, a, b))
