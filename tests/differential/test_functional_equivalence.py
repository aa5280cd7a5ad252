"""Differential suite: one unfold per convolution, timing from shapes alone.

Three claims keep the dense path honest after the functional forward
pass left the timing half:

- ``conv_functional`` unfolds once over all channels and multiplies the
  groups as one stacked product. The oracle — one ``im2col`` and one
  GEMM per group — lives only in this file; outputs must be
  ``tobytes()``-equal and every ``group_cols[g]`` a C-contiguous row
  slice byte-equal to the unfold of that group's channels.
- ``SystolicEngine.time_gemm(m, k, n, repeats=G)`` is ``G`` sequential
  single-GEMM calls: result, every component's counters, stall and
  fabric ledgers, the engine clock, trace events and metrics samples.
- the timing half is value-blind: a grouped ``run_conv`` unfolds exactly
  once on tpu, maeri and sigma, the accelerator never asks the engine
  for a product, and ``time_gemm`` of the shapes equals the summary
  ``run_gemm`` returns beside its product.

And one keeps the two halves of an operation apart: ``run_*`` is the
functional front half plus ``Accelerator.time(workload)``, and ``time``
alone — what a pool worker, a cache miss and ``stonne sanitize`` run —
leaves the payload, trace events, metrics samples and ledgers of the
whole ``run_*`` while every functional helper is poisoned.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.accelerator as accelerator_module
from repro.config import EngineMode, tpu_like
from repro.config.hardware import Dataflow, DramConfig
from repro.engine.accelerator import (
    Accelerator,
    conv_functional,
    conv_layer_spec,
    maxpool_functional,
    maxpool_output_shape,
)
from repro.engine.systolic import SystolicEngine
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.observability import Observability
from repro.observability.tracer import Tracer
from repro.parallel import record_model
from repro.parallel.runner import _simulate_workload
from repro.tensors.im2col import col2im_output, im2col


# ---------------------------------------------------------------------------
# (a) one unfold + one stacked product == per-group unfold + GEMM
# ---------------------------------------------------------------------------

def _per_group_oracle(weights, activations, stride, padding, groups, layer):
    """The per-group loop ``conv_functional`` used to be."""
    n = activations.shape[0]
    k, c_g = layer.k, layer.c
    output = np.zeros(
        (n, k * groups, layer.x_out, layer.y_out), dtype=np.float32
    )
    group_cols = []
    for g in range(groups):
        cols = im2col(
            activations[:, g * c_g : (g + 1) * c_g],
            layer.r, layer.s, stride, padding,
        )
        group_cols.append(cols)
        out_g = weights[g * k : (g + 1) * k].reshape(k, -1) @ cols
        output[:, g * k : (g + 1) * k] = col2im_output(
            out_g, n, layer.x_out, layer.y_out
        )
    return output, group_cols


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 3),
    c_g=st.integers(1, 5),
    k_g=st.integers(1, 6),
    groups=st.integers(1, 6),
    x=st.integers(3, 9),
    y=st.integers(3, 9),
    r=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
# dense, depthwise, stride 2 and padding 0, whatever the draw explores
@example(n=1, c_g=4, k_g=8, groups=1, x=8, y=8, r=3, stride=1, padding=1,
         seed=0)
@example(n=2, c_g=1, k_g=1, groups=6, x=9, y=7, r=3, stride=2, padding=0,
         seed=1)
@example(n=2, c_g=3, k_g=2, groups=4, x=6, y=6, r=1, stride=2, padding=0,
         seed=2)
def test_conv_functional_matches_per_group_oracle(
    n, c_g, k_g, groups, x, y, r, stride, padding, seed
):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((k_g * groups, c_g, r, r)).astype(np.float32)
    activations = rng.standard_normal(
        (n, c_g * groups, x, y)
    ).astype(np.float32)
    layer = conv_layer_spec(
        weights, activations, stride=stride, padding=padding, groups=groups
    )
    output, group_cols = conv_functional(
        weights, activations, stride, padding, groups, layer
    )
    want, want_cols = _per_group_oracle(
        weights, activations, stride, padding, groups, layer
    )
    assert output.dtype == np.float32 and output.shape == want.shape
    assert output.flags.c_contiguous
    assert output.tobytes() == want.tobytes()
    assert len(group_cols) == groups
    for cols, ref in zip(group_cols, want_cols):
        assert cols.flags.c_contiguous
        assert cols.shape == ref.shape
        assert cols.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# (b) time_gemm(..., repeats=G) == G back-to-back time_gemm calls
# ---------------------------------------------------------------------------

LENSES = {
    "plain": {},
    "trace": {"trace": True},
    "metrics": {"metrics_every": 16},
    "stalls": {"stalls": True},
    "fabric": {"fabric": True},
}

#: ``(m, k, n, groups, dram_gbps)``: a ragged grid on a 4x4 array, and one
#: behind a DRAM slow enough that every group pays a stall
SHAPES = [(6, 18, 25, 5, 512.0), (3, 40, 70, 3, 0.5)]


def _time_groups(dataflow, mode, lens, shape, batched):
    m, k, n, groups, dram_gbps = shape
    obs = Observability.create(**LENSES[lens])
    acc = Accelerator(
        tpu_like(16, dataflow=dataflow).with_updates(
            engine_mode=mode, dram=DramConfig(bandwidth_gbps=dram_gbps)
        ),
        observability=obs,
    )
    engine = acc.systolic
    acc.dram.new_layer()
    obs.start_layer(0)
    if batched:
        result = engine.time_gemm(m, k, n, repeats=groups)
    else:
        start = 0
        for _ in range(groups):
            result = engine.time_gemm(m, k, n, start)
            start += result.cycles
    total = result.cycles * groups
    delta = {c.name: c.counters.as_dict() for c in acc.components}
    merged = {}
    for counters in delta.values():
        merged.update(counters)
    return {
        "result": dataclasses.asdict(result),
        "counters": delta,
        "current_cycle": engine.current_cycle,
        "events": list(obs.tracer.events),
        "samples": [
            (s.cycle, dict(s.values)) for s in obs.layer_samples()
        ],
        "stalls": obs.stalls.finalize(total) if obs.stalls else None,
        "fabric": obs.fabric.finalize(merged, total) if obs.fabric else None,
    }


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("lens", sorted(LENSES))
@pytest.mark.parametrize("mode", [EngineMode.CYCLE, EngineMode.VECTOR])
@pytest.mark.parametrize(
    "dataflow", [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]
)
def test_repeats_equal_sequential_calls(dataflow, mode, lens, shape):
    batched = _time_groups(dataflow, mode, lens, shape, batched=True)
    sequential = _time_groups(dataflow, mode, lens, shape, batched=False)
    assert batched == sequential
    assert batched["current_cycle"] == (
        batched["result"]["cycles"] * shape[3]
    )
    if lens == "trace":
        assert batched["events"]
    if lens == "metrics":
        assert batched["samples"]


def test_dram_bound_shape_stalls_every_group():
    """The second SHAPES row must exercise the per-repeat DRAM records."""
    run = _time_groups(
        Dataflow.OUTPUT_STATIONARY, EngineMode.VECTOR, "stalls",
        SHAPES[1], batched=True,
    )
    assert run["result"]["dram_stall_cycles"] > 0
    assert run["stalls"]["pe_array"]["dram_stall"] == (
        run["result"]["dram_stall_cycles"] * SHAPES[1][3]
    )
    dram = run["counters"]["dram"]
    assert dram["dram_row_misses"] == 1
    assert dram["dram_row_hits"] == 2 * SHAPES[1][3] - 1


@pytest.mark.parametrize("lens", ["plain", "stalls", "fabric"])
@pytest.mark.parametrize(
    "dataflow", [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]
)
def test_untraced_groups_make_a_constant_number_of_dram_records(
    dataflow, lens, monkeypatch
):
    """Without a tracer or a recorder a grouped GEMM's DRAM traffic is
    recorded with ``times=repeats`` — one read and one write, whatever the
    group count and whatever ``engine_mode`` says; a metrics recorder
    records each group's traffic in turn, where the group ran."""
    calls = []
    record = accelerator_module.Dram._record

    def counting_record(self, *args, **kwargs):
        calls.append(args)
        return record(self, *args, **kwargs)

    monkeypatch.setattr(accelerator_module.Dram, "_record", counting_record)
    for mode, groups, lenses, expected in (
        (EngineMode.VECTOR, 256, LENSES[lens], 2),
        (EngineMode.VECTOR, 3, LENSES[lens], 2),
        (EngineMode.CYCLE, 256, LENSES[lens], 2),
        (EngineMode.AUTO, 256, {**LENSES[lens], "metrics_every": 64}, 2 * 256),
    ):
        obs = Observability.create(**lenses)
        engine = Accelerator(
            tpu_like(16, dataflow=dataflow).with_updates(engine_mode=mode),
            observability=obs,
        ).systolic
        calls.clear()
        engine.time_gemm(6, 18, 25, repeats=groups)
        assert len(calls) == expected, (mode, groups)


# ---------------------------------------------------------------------------
# (c) value-blindness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["tpu", "maeri", "sigma"])
def test_grouped_conv_unfolds_once_and_never_asks_for_a_product(
    arch, monkeypatch
):
    unfolds = []

    def counting_im2col(*args, **kwargs):
        unfolds.append(args[0].shape)
        return im2col(*args, **kwargs)

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("the accelerator asked the engine for a product")

    monkeypatch.setattr(accelerator_module, "im2col", counting_im2col)
    monkeypatch.setattr(SystolicEngine, "run_gemm", boom)
    rng = np.random.default_rng(5)
    weights = rng.standard_normal((8, 2, 3, 3)).astype(np.float32)
    activations = rng.standard_normal((2, 8, 7, 7)).astype(np.float32)
    acc = Accelerator(architecture_config(arch))
    output = acc.run_conv(weights, activations, padding=1, groups=4)
    assert unfolds == [activations.shape]
    layer = conv_layer_spec(weights, activations, padding=1, groups=4)
    want, _ = _per_group_oracle(weights, activations, 1, 1, 4, layer)
    assert output.tobytes() == want.tobytes()
    assert acc.report.layers[-1].macs > 0
    if arch == "tpu":
        a = rng.standard_normal((5, 9)).astype(np.float32)
        b = rng.standard_normal((9, 4)).astype(np.float32)
        assert acc.run_gemm(a, b).tobytes() == (a @ b).tobytes()


@pytest.mark.parametrize("mode", [EngineMode.CYCLE, EngineMode.VECTOR])
@pytest.mark.parametrize(
    "dataflow", [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY]
)
def test_time_gemm_equals_run_gemm_summary(dataflow, mode):
    config = tpu_like(16, dataflow=dataflow).with_updates(engine_mode=mode)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 13)).astype(np.float32)
    b = rng.standard_normal((13, 10)).astype(np.float32)
    timed_acc, run_acc = Accelerator(config), Accelerator(config)
    timed = timed_acc.systolic.time_gemm(7, 13, 10)
    out, summary = run_acc.systolic.run_gemm(a, b)
    assert out.tobytes() == (a @ b).tobytes()
    assert dataclasses.asdict(timed) == dataclasses.asdict(summary)
    for ours, theirs in zip(timed_acc.components, run_acc.components):
        assert ours.counters.as_dict() == theirs.counters.as_dict()


# ---------------------------------------------------------------------------
# (d) run_* = functional front half + Accelerator.time(workload)
# ---------------------------------------------------------------------------

ALL_LENSES = {"trace": True, "metrics_every": 64, "stalls": True, "fabric": True}

#: the four functional helpers, by the names the front half calls them
FUNCTIONAL_HELPERS = (
    "im2col", "conv_functional", "gemm_functional", "maxpool_functional",
)

ZOO = [
    (model, arch) for model in MODEL_NAMES for arch in ("tpu", "maeri", "sigma")
]


def _run_workload(acc, workload):
    """``acc.run_*`` on one recorded layer's operands."""
    params, operands = workload.params, workload.operands
    if workload.kind == "conv":
        return acc.run_conv(
            operands["weights"], operands["inputs"], stride=params["stride"],
            padding=params["padding"], groups=params["groups"],
            tile=params["tile"], name=workload.name,
            round_builder=params["round_builder"],
        )
    if workload.kind == "gemm":
        return acc.run_gemm(operands["weights"], operands["inputs"],
                            tile=params["tile"], name=workload.name)
    if workload.kind == "spmm":
        return acc.run_spmm(
            operands["weights"], operands["inputs"],
            round_builder=params["round_builder"], name=workload.name,
            sparse_streaming=params["sparse_streaming"],
        )
    return acc.run_maxpool(operands["inputs"], pool=params["pool"],
                           stride=params["stride"], name=workload.name)


def _observed(acc, obs):
    """Everything one layer leaves behind, as comparable plain data."""
    (layer,) = acc.report.layers
    return {
        "payload": json.dumps(layer.to_payload(), sort_keys=True),
        "trace": [dataclasses.asdict(e) for e in obs.tracer.events],
        "samples": [
            {"cycle": s.cycle, "values": dict(s.values)}
            for s in (obs.metrics.samples if obs.metrics is not None else [])
        ],
    }


@pytest.mark.parametrize("model_name,arch", ZOO)
def test_time_alone_equals_run_and_computes_no_tensor(
    model_name, arch, monkeypatch
):
    """``Accelerator.time`` and the pool worker built on it leave what a
    plain ``run_*`` leaves — with every functional helper poisoned, so
    neither can be recomputing the output the record pass produced.
    Grouped and depthwise convs come with mobilenets / ssd-mobilenets."""
    config = architecture_config(arch)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    _, workloads = record_model(model, x, config)
    assert workloads

    want = {}
    for label, lenses in (("off", {}), ("on", ALL_LENSES)):
        for workload in workloads:
            obs = Observability.create(**lenses)
            acc = Accelerator(config, observability=obs)
            _run_workload(acc, workload)
            want[label, workload.index] = _observed(acc, obs)

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("the timing half asked for a tensor")

    for helper in FUNCTIONAL_HELPERS:
        monkeypatch.setattr(accelerator_module, helper, boom)
    for label, lenses in (("off", {}), ("on", ALL_LENSES)):
        for workload in workloads:
            reference = want[label, workload.index]
            obs = Observability.create(**lenses)
            acc = Accelerator(config, observability=obs)
            report = acc.time(workload)
            assert report is acc.report.layers[0]
            assert _observed(acc, obs) == reference

            bundle = _simulate_workload(config, workload, lenses)
            payload = json.loads(reference["payload"])
            payload["extra"].pop("metrics", None)
            assert json.dumps(bundle["layer"], sort_keys=True) == \
                json.dumps(payload, sort_keys=True)
            # the wire keeps span runs as runs; expanded, they are the
            # serial events
            shipped = Tracer()
            shipped.extend(bundle["trace"])
            assert [
                dataclasses.asdict(e) for e in shipped.events
            ] == reference["trace"]
            assert bundle["metrics_samples"] == reference["samples"]
            if label == "on":
                assert "stalls" in payload["extra"]
                assert "fabric" in payload["extra"]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    x=st.integers(1, 12),
    y=st.integers(1, 12),
    pool=st.integers(1, 4),
    stride=st.integers(1, 4),
)
@example(n=1, c=1, x=1, y=1, pool=1, stride=1)
@example(n=2, c=3, x=7, y=5, pool=3, stride=2)  # windows do not tile
def test_maxpool_shape_derived_counts_match_functional(
    n, c, x, y, pool, stride
):
    pool = min(pool, x, y)
    activations = np.arange(n * c * x * y, dtype=np.float32).reshape(n, c, x, y)
    output, comparisons = maxpool_functional(activations, pool, stride)
    shape = maxpool_output_shape(activations.shape, pool, stride)
    assert shape == output.shape
    assert comparisons == pool * pool * output.size

    acc = Accelerator(architecture_config("maeri"))
    assert acc.run_maxpool(activations, pool, stride).tobytes() == \
        output.tobytes()
    (layer,) = acc.report.layers
    assert layer.outputs == output.size
    assert layer.counters.as_dict()["gb_pool_comparisons"] == comparisons
    assert layer.counters.as_dict()["gb_writes"] == output.size
