"""Differential suite: lenses on the timeline vs lenses off.

The systolic engine has one accounting. Without a tracer or a metrics
recorder it writes the counter file once per tile class; with one it
visits the schedule run by run (tile row x n-axis class), placing span
runs and metrics samples in closed form. ``engine_mode`` selects
nothing. This suite holds the two cuts of the one accounting together
where the per-GEMM oracles (``test_tile_tally_equivalence.py``,
``test_span_run_equivalence.py``) do not reach:

- every zoo model on both dense architectures, traced and sampled
  against lens-free, layer by layer through the full ``to_payload()``
  serialization and the functional output;
- Hypothesis-generated (geometry, tile, preset) triples for GEMMs and
  convolutions, so shapes nobody hand-picked get the same guarantee;
- a recorder moves no trace span, grouped convolutions included, and
  ``engine_mode`` moves nothing at all;
- refusal-path checks: sparse (SIGMA) and SNAPEA workloads never reach
  the systolic accounting.
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
from repro.errors import MappingError
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import attach_context, detach_context, simulate
from repro.observability import Observability
from repro.observability.tracer import PHASE_COUNTER

#: all zoo models on both dense Table IV architectures (sigma is sparse,
#: covered separately below)
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


def _timeline():
    """A tracer and a recorder: the lenses that read *when* a tile ran."""
    return Observability.create(trace=True, metrics_every=64)


def _payloads(report):
    """The byte-exact serialization the output module writes to disk,
    less the samples a metrics recorder adds to a layer's ``extra``."""
    payloads = [layer.to_payload() for layer in report.layers]
    for payload in payloads:
        payload["extra"].pop("metrics", None)
    return json.dumps(payloads, sort_keys=True)


def _run_zoo(arch, model_name, mode=EngineMode.AUTO, observability=None):
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


def _spans(tracer):
    return [e for e in tracer.events if e.phase != PHASE_COUNTER]


# ---------------------------------------------------------------------------
# zoo sweep: every dense layer in the model zoo, byte for byte
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_CASES)
def test_zoo_layers_byte_identical(model_name, arch):
    ref_out, ref_acc = _run_zoo(arch, model_name)
    obs = Observability.create(trace=True, metrics_every=1000)
    vec_out, vec_acc = _run_zoo(arch, model_name, observability=obs)
    assert vec_out.tobytes() == ref_out.tobytes()
    _assert_reports_identical(ref_acc, vec_acc)
    assert len(obs.metrics) == vec_acc.report.total_cycles // 1000


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

    ref = Accelerator(config)
    vec = Accelerator(config, observability=_timeline())
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

    ref = Accelerator(config)
    vec = Accelerator(config, observability=_timeline())
    ref_out = ref.run_conv(
        weights, activations, stride=stride, padding=padding, tile=tile
    )
    vec_out = vec.run_conv(
        weights, activations, stride=stride, padding=padding, tile=tile
    )

    assert vec_out.tobytes() == ref_out.tobytes()
    _assert_reports_identical(ref, vec)


# ---------------------------------------------------------------------------
# observability: a recorder moves no span, the engine mode nothing
# ---------------------------------------------------------------------------

def _grouped_conv(acc):
    # squeezenet has no grouped layer: the systolic array runs one GEMM
    # per group, each placed after the cycles of the groups before it
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((16, 2, 3, 3)).astype(np.float32)
    activations = rng.standard_normal((1, 16, 10, 10)).astype(np.float32)
    acc.run_conv(weights, activations, groups=8, name="grouped")


@pytest.mark.parametrize("arch", ["tpu", "maeri"])
def test_vector_trace_spans_byte_identical(arch):
    """A recorder splits span runs where its samples land; the spans
    they expand to are the ones a tracer alone records."""
    ref_obs = Observability.create(trace=True)
    vec_obs = _timeline()
    _, ref_acc = _run_zoo(arch, "squeezenet", observability=ref_obs)
    _, vec_acc = _run_zoo(arch, "squeezenet", observability=vec_obs)
    for acc in (ref_acc, vec_acc):
        _grouped_conv(acc)
    _assert_reports_identical(ref_acc, vec_acc)
    assert _spans(vec_obs.tracer) == _spans(ref_obs.tracer)
    assert len(vec_obs.metrics)


@pytest.mark.parametrize("mode", [EngineMode.VECTOR, EngineMode.AUTO])
def test_traced_run_takes_the_aggregate(mode):
    """``engine_mode`` is inert: a traced and sampled run in ``mode``
    records what one in ``cycle`` does, and stores its tile spans as
    span runs — there is no per-tile walk left to select."""
    ref_obs = _timeline()
    _, ref_acc = _run_zoo("tpu", "squeezenet", EngineMode.CYCLE, ref_obs)
    _grouped_conv(ref_acc)
    obs = _timeline()
    _, acc = _run_zoo("tpu", "squeezenet", mode, obs)
    _grouped_conv(acc)
    _assert_reports_identical(ref_acc, acc)
    assert obs.tracer.to_wire() == ref_obs.tracer.to_wire()
    assert obs.metrics.to_json() == ref_obs.metrics.to_json()
    tiles = [r for r in obs.tracer.to_wire() if r["name"] == "PE:tile"]
    assert tiles and all("count" in r for r in tiles)


# ---------------------------------------------------------------------------
# refusal paths: sparse and SNAPEA never reach the systolic accounting
# ---------------------------------------------------------------------------

def test_sparse_sigma_never_reaches_vector_kernels(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("systolic accounting reached on the sparse path")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile", boom
    )
    _, acc = _run_zoo("sigma", "bert", EngineMode.VECTOR)
    assert acc.report.total_cycles > 0


def test_snapea_never_reaches_vector_kernels(monkeypatch):
    from repro.frontend.layers import Conv2d
    from repro.opts.snapea import SnapeaContext

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("systolic accounting reached on the SNAPEA path")

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile", boom
    )
    rng = np.random.default_rng(7)
    conv = Conv2d(4, 8, 3, rng=rng)
    x = np.abs(rng.standard_normal((1, 4, 8, 8))).astype(np.float32)
    ctx = SnapeaContext(early_termination=True)
    attach_context(conv, ctx)
    conv(x)
    detach_context(conv)
    assert ctx.layers and ctx.layers[0].ops > 0
