"""Differential suite: the per-tile walk vs the tile-class aggregate.

``engine_mode`` is a pure execution strategy, not an approximation: for
every dense workload every mode must produce *byte-identical* reports —
same cycles, same activity counters, same energy, same trace spans.
The systolic engine is where the modes differ (per-tile walk vs
tile-class aggregate inside ``SystolicEngine.run_gemm``); the dense
controller has a single timing path, so its cases pin that the mode is
ignored there. This suite is the safety net that makes the claim
falsifiable:

- every zoo model on every dense architecture, compared layer by layer
  through the full ``to_payload()`` serialization;
- Hypothesis-generated (geometry, tile, preset) triples for GEMMs and
  convolutions, so shapes nobody hand-picked get the same guarantee;
- trace-span equality under the tracer (the aggregate places the
  schedule's spans as span runs, never visiting the tile grid, in
  ``auto`` and ``vector`` alike), grouped convolutions included;
- refusal-path checks: sparse (SIGMA) and SNAPEA workloads must never
  reach the aggregate, metrics sampling must force the per-tile walk,
  and the ``STONNE_ENGINE_MODE`` override must win over the config.

The per-tile walk is the oracle; whenever the two disagree, the
aggregate is the one that is wrong.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import EngineMode, maeri_like, tpu_like
from repro.config.hardware import Dataflow
from repro.config.tile import TileConfig
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import (
    ENGINE_MODE_ENV,
    resolve_engine_mode,
    use_vector_kernels,
)
from repro.errors import ConfigurationError, MappingError
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import attach_context, detach_context, simulate
from repro.observability import Observability

@pytest.fixture(autouse=True)
def _pin_configured_mode(monkeypatch):
    """This file drives both engines explicitly via ``engine_mode``; a
    CI-level ``STONNE_ENGINE_MODE`` override would make the comparisons
    vacuous (both sides vector), so clear it for these tests."""
    monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)


#: all zoo models on both dense Table IV architectures (sigma is sparse:
#: the vector predicate refuses it, covered separately below)
ZOO_CASES = [
    (model, arch) for model in MODEL_NAMES for arch in ("tpu", "maeri")
]

#: hardware presets the Hypothesis triples draw from — both dense
#: controller families, multiple sizes, both systolic dataflows
PRESETS = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "tpu64": lambda: tpu_like(num_pes=64),
    "tpu64-ws": lambda: tpu_like(
        num_pes=64, dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "maeri16": lambda: maeri_like(num_ms=16, bandwidth=8),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
}


def _with_mode(config, mode):
    return config.with_updates(engine_mode=mode)


def _payloads(report):
    """The byte-exact serialization the output module writes to disk."""
    return json.dumps(
        [layer.to_payload() for layer in report.layers], sort_keys=True
    )


def _run_zoo(arch, model_name, mode, observability=None):
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    acc = Accelerator(
        _with_mode(architecture_config(arch), mode),
        observability=observability,
    )
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return output, acc


def _assert_reports_identical(ref_acc, vec_acc):
    assert vec_acc.report.total_cycles == ref_acc.report.total_cycles
    assert _payloads(vec_acc.report) == _payloads(ref_acc.report)


# ---------------------------------------------------------------------------
# zoo sweep: every dense layer in the model zoo, byte for byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_CASES)
def test_zoo_layers_byte_identical(model_name, arch):
    ref_out, ref_acc = _run_zoo(arch, model_name, EngineMode.CYCLE)
    vec_out, vec_acc = _run_zoo(arch, model_name, EngineMode.VECTOR)
    assert vec_out.tobytes() == ref_out.tobytes()
    _assert_reports_identical(ref_acc, vec_acc)


# ---------------------------------------------------------------------------
# Hypothesis triples: (geometry, tile, preset)
# ---------------------------------------------------------------------------

@st.composite
def gemm_triples(draw):
    m = draw(st.integers(1, 96))
    k = draw(st.integers(1, 64))
    n = draw(st.integers(1, 96))
    preset = draw(st.sampled_from(sorted(PRESETS)))
    seed = draw(st.integers(0, 2**16))
    return m, k, n, preset, seed


@given(gemm_triples())
@settings(max_examples=40, deadline=None)
def test_random_gemm_byte_identical(triple):
    m, k, n, preset, seed = triple
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    config = PRESETS[preset]()

    ref = Accelerator(_with_mode(config, EngineMode.CYCLE))
    vec = Accelerator(_with_mode(config, EngineMode.VECTOR))
    ref_out = ref.run_gemm(a, b)
    vec_out = vec.run_gemm(a, b)

    assert vec_out.tobytes() == ref_out.tobytes()
    _assert_reports_identical(ref, vec)


@st.composite
def conv_triples(draw):
    c = draw(st.integers(1, 8))
    k = draw(st.integers(1, 8))
    x = draw(st.integers(3, 12))
    r = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 1))
    assume(x + 2 * padding >= r)
    preset = draw(st.sampled_from(sorted(PRESETS)))
    # half the triples force an explicit (possibly awkward) tile through
    # the dense controller; the rest take the mapper's choice
    explicit_tile = draw(st.booleans())
    tc = draw(st.integers(1, c))
    tk = draw(st.integers(1, k))
    ty = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    return c, k, x, r, stride, padding, preset, explicit_tile, (tc, tk, ty), seed


@given(conv_triples())
@settings(max_examples=25, deadline=None)
def test_random_conv_byte_identical(triple):
    c, k, x, r, stride, padding, preset, explicit_tile, tile_dims, seed = triple
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((k, c, r, r)).astype(np.float32)
    activations = rng.standard_normal((1, c, x, x)).astype(np.float32)
    config = PRESETS[preset]()

    tile = None
    if explicit_tile and not preset.startswith("tpu"):
        from repro.engine.accelerator import conv_layer_spec

        layer = conv_layer_spec(
            weights, activations, stride=stride, padding=padding, groups=1
        )
        tc, tk, ty = tile_dims
        candidate = TileConfig(t_c=tc, t_k=tk, t_y=min(ty, layer.y_out))
        try:
            Accelerator(config).mapper.tile_for_conv(layer, candidate)
        except MappingError:
            assume(False)
        tile = candidate

    ref = Accelerator(_with_mode(config, EngineMode.CYCLE))
    vec = Accelerator(_with_mode(config, EngineMode.VECTOR))
    ref_out = ref.run_conv(
        weights, activations, stride=stride, padding=padding, tile=tile
    )
    vec_out = vec.run_conv(
        weights, activations, stride=stride, padding=padding, tile=tile
    )

    assert vec_out.tobytes() == ref_out.tobytes()
    _assert_reports_identical(ref, vec)


# ---------------------------------------------------------------------------
# observability: traces replay exactly, metrics force the stepped walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["tpu", "maeri"])
def test_vector_trace_spans_byte_identical(arch):
    """VECTOR mode replays the reference schedule's spans closed-form."""
    ref_obs = Observability.create(trace=True)
    vec_obs = Observability.create(trace=True)
    _, ref_acc = _run_zoo(arch, "squeezenet", EngineMode.CYCLE, ref_obs)
    _, vec_acc = _run_zoo(arch, "squeezenet", EngineMode.VECTOR, vec_obs)
    # squeezenet has no grouped layer: the systolic array runs one GEMM
    # per group, each placed after the cycles of the groups before it
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((16, 2, 3, 3)).astype(np.float32)
    activations = rng.standard_normal((1, 16, 10, 10)).astype(np.float32)
    for acc in (ref_acc, vec_acc):
        acc.run_conv(weights, activations, groups=8, name="grouped")
    _assert_reports_identical(ref_acc, vec_acc)
    assert list(vec_obs.tracer.events) == list(ref_obs.tracer.events)


@pytest.mark.parametrize("mode", [EngineMode.VECTOR, EngineMode.AUTO])
def test_metrics_sampling_forces_reference_walk(mode, monkeypatch):
    """Metrics snapshots need the stepped walk's intermediate state."""
    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("vector kernel reached under metrics sampling")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile_classes", boom
    )
    obs = Observability.create(metrics_every=64)
    _, acc = _run_zoo("tpu", "squeezenet", mode, obs)
    assert acc.report.total_cycles > 0
    assert obs.metrics is not None and len(obs.metrics)


@pytest.mark.parametrize("mode", [EngineMode.VECTOR, EngineMode.AUTO])
def test_traced_run_takes_the_aggregate(mode, monkeypatch):
    """An attached tracer does not select the walk: ``auto`` and
    ``vector`` place the tile spans from the tile classes, never visiting
    the grid, and leave the walk's events — grouped convolution included."""
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((16, 2, 3, 3)).astype(np.float32)
    activations = rng.standard_normal((1, 16, 10, 10)).astype(np.float32)

    ref_obs = Observability.create(trace=True)
    _, ref_acc = _run_zoo("tpu", "squeezenet", EngineMode.CYCLE, ref_obs)
    ref_acc.run_conv(weights, activations, groups=8, name="grouped")

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("the tile grid was walked under a tracer")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._tile_grid", boom
    )
    obs = Observability.create(trace=True)
    _, acc = _run_zoo("tpu", "squeezenet", mode, obs)
    acc.run_conv(weights, activations, groups=8, name="grouped")
    _assert_reports_identical(ref_acc, acc)
    assert obs.tracer.events == ref_obs.tracer.events


# ---------------------------------------------------------------------------
# refusal paths: sparse and SNAPEA never reach a vector kernel
# ---------------------------------------------------------------------------

def test_sparse_sigma_never_reaches_vector_kernels(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("vector kernel reached on the sparse path")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile_classes", boom
    )
    _, acc = _run_zoo("sigma", "bert", EngineMode.VECTOR)
    assert acc.report.total_cycles > 0


def test_snapea_never_reaches_vector_kernels(monkeypatch):
    from repro.frontend.layers import Conv2d
    from repro.opts.snapea import SnapeaContext

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("vector kernel reached on the SNAPEA path")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile_classes", boom
    )
    monkeypatch.setenv(ENGINE_MODE_ENV, "vector")
    rng = np.random.default_rng(7)
    conv = Conv2d(4, 8, 3, rng=rng)
    x = np.abs(rng.standard_normal((1, 4, 8, 8))).astype(np.float32)
    ctx = SnapeaContext(early_termination=True)
    attach_context(conv, ctx)
    conv(x)
    detach_context(conv)
    assert ctx.layers and ctx.layers[0].ops > 0


# ---------------------------------------------------------------------------
# predicate unit checks (mode resolution and env override)
# ---------------------------------------------------------------------------

def test_predicate_mode_matrix():
    off = Observability()
    tpu = tpu_like(num_pes=16)
    assert not use_vector_kernels(
        _with_mode(tpu, EngineMode.CYCLE), off
    )
    assert use_vector_kernels(_with_mode(tpu, EngineMode.VECTOR), off)
    assert use_vector_kernels(_with_mode(tpu, EngineMode.AUTO), off)

    # a tracer selects nothing: ``auto`` and ``vector`` are one behaviour
    tracing = Observability.create(trace=True)
    assert not use_vector_kernels(_with_mode(tpu, EngineMode.CYCLE), tracing)
    assert use_vector_kernels(_with_mode(tpu, EngineMode.AUTO), tracing)
    assert use_vector_kernels(_with_mode(tpu, EngineMode.VECTOR), tracing)

    sampling = Observability.create(metrics_every=32)
    assert not use_vector_kernels(_with_mode(tpu, EngineMode.VECTOR), sampling)
    assert not use_vector_kernels(_with_mode(tpu, EngineMode.AUTO), sampling)

    from repro.config import sigma_like

    assert not use_vector_kernels(
        _with_mode(sigma_like(num_ms=16, bandwidth=8), EngineMode.VECTOR), off
    )


def test_env_override_wins(monkeypatch):
    tpu = tpu_like(num_pes=16)
    monkeypatch.setenv(ENGINE_MODE_ENV, "cycle")
    assert resolve_engine_mode(
        _with_mode(tpu, EngineMode.VECTOR)
    ) is EngineMode.CYCLE
    monkeypatch.setenv(ENGINE_MODE_ENV, "vector")
    assert resolve_engine_mode(
        _with_mode(tpu, EngineMode.CYCLE)
    ) is EngineMode.VECTOR
    monkeypatch.setenv(ENGINE_MODE_ENV, "warp-speed")
    with pytest.raises(ConfigurationError):
        resolve_engine_mode(tpu)
