"""Differential suite: a serial run's fold of repeated layers.

A serial run (``simulate()`` + ``model(x)``) times each distinct layer
once: the accelerator's front end gives a repeat the first twin's report
under its own name and advances every counter file and clock by what the
first timing added, under the parallel runner's fold rule. The oracle is
timing every layer: each on a fresh accelerator (``_simulate_workload``,
what a pool worker runs) for the payloads, all of them through direct
:meth:`Accelerator.time` calls on one accelerator for the counter files
and clocks. The host-time modes must be the runner's: a layer whose
simulation cache key an earlier layer had is ``deduplicated``.

The fold key must be at least as strict as the cache key: equal fold
keys, equal cache keys, which the property at the end checks on
generated workload pairs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TileConfig, maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.workload import MAPPING_PARAMS, LayerWorkload
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.observability.stalls import StallLedger
from repro.parallel import SimCache, record_model
from repro.parallel.runner import _simulate_workload

#: the dense hardware points of the benchmark's sweeps
DENSE_PRESETS = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "tpu256": lambda: tpu_like(num_pes=256),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
    "maeri256": lambda: maeri_like(num_ms=256, bandwidth=128),
}

#: the lenses whose ledgers ride in the payload, off and on
LENS_SETS = {"off": {}, "ledgers": {"stalls": True, "fabric": True}}


def _serial(model_name, config, lenses):
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    acc = Accelerator(config, observability=Observability.create(**lenses))
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return model, x, output, acc


def _payload_text(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("lenses", sorted(LENS_SETS))
@pytest.mark.parametrize("preset", sorted(DENSE_PRESETS))
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_a_serial_run_is_every_layer_timed(model_name, preset, lenses):
    config = DENSE_PRESETS[preset]()
    lens_args = LENS_SETS[lenses]
    model, x, output, acc = _serial(model_name, config, lens_args)
    recorded_output, workloads = record_model(model, x, config)
    assert output.tobytes() == recorded_output.tobytes()

    assert [_payload_text(layer.to_payload()) for layer in acc.report.layers] \
        == [_payload_text(_simulate_workload(config, w, lens_args)["layer"])
            for w in workloads]
    every = Accelerator(config, observability=Observability.create(**lens_args))
    for workload in workloads:
        every.time(workload)
    assert [c.counters.as_dict() for c in acc.components] == \
        [c.counters.as_dict() for c in every.components]
    assert [c.current_cycle for c in acc.components] == \
        [c.current_cycle for c in every.components]
    assert acc.report.total_cycles == every.report.total_cycles
    assert {row.mode for row in every.obs.host_time} == {"simulated"}

    seen = set()
    modes = []
    for key in SimCache.keys_of(workloads, config, lens_args):
        modes.append("deduplicated" if key in seen else "simulated")
        seen.add(key)
    assert [(row.name, row.kind, row.cycles, row.mode)
            for row in acc.obs.host_time] == [
        (layer.name, layer.kind, layer.cycles, mode)
        for layer, mode in zip(acc.report.layers, modes)
    ]
    for row in acc.obs.host_time:
        assert (row.seconds is None) == (row.mode == "deduplicated"), row
    if model_name == "bert":
        assert "deduplicated" in modes  # the fold was exercised


@pytest.mark.parametrize("lenses", [{"trace": True}, {"metrics_every": 64}])
def test_a_per_layer_lens_keeps_every_layer_timed(lenses):
    """Every layer keeps its place on the timeline: the metrics recorder,
    whose samples sit on an absolute cycle grid, keeps every layer
    simulated; a tracer folds repeats, each still with its own span."""
    _, _, _, acc = _serial("bert", tpu_like(num_pes=16), lenses)
    modes = {row.mode for row in acc.obs.host_time}
    if acc.obs.tracer.enabled:
        assert modes == {"simulated", "deduplicated"}
        spans = [e for e in acc.obs.tracer.events if e.name.startswith("layer:")]
        assert [span.name for span in spans] == [
            f"layer:{layer.name}" for layer in acc.report.layers]
    else:
        assert modes == {"simulated"}


def test_a_direct_time_call_is_always_timed():
    acc = Accelerator(maeri_like(num_ms=16, bandwidth=4))
    a = np.ones((8, 6), np.float32)
    b = np.ones((6, 5), np.float32)
    acc.run_gemm(a, b)
    acc.run_gemm(a, b)
    acc.time(LayerWorkload(2, "gemm", "gemm", {"tile": None},
                           {"weights": a, "inputs": b}))
    assert [row.mode for row in acc.obs.host_time] == [
        "simulated", "deduplicated", "simulated"]
    first, folded, timed = acc.report.layers
    assert first.to_payload() == folded.to_payload() == timed.to_payload()


def test_a_ledger_turned_on_mid_run_is_not_folded_away():
    acc = Accelerator(tpu_like(num_pes=16))
    a = np.ones((8, 6), np.float32)
    acc.run_gemm(a, a.T)
    acc.obs.stalls = StallLedger()
    acc.run_gemm(a, a.T)
    first, second = acc.report.layers
    assert "stalls" not in first.extra and "stalls" in second.extra
    assert [row.mode for row in acc.obs.host_time] == ["simulated", "simulated"]


def test_reset_forgets_the_folds():
    acc = Accelerator(tpu_like(num_pes=16))
    a = np.ones((8, 6), np.float32)
    acc.run_gemm(a, a.T)
    acc.reset()
    acc.run_gemm(a, a.T)
    assert [row.mode for row in acc.obs.host_time] == ["simulated", "simulated"]


# ---------------------------------------------------------------------------
# the fold key is at least as strict as the cache key
# ---------------------------------------------------------------------------

#: classes of param values that compare (and hash) equal, most of which
#: the cache key writes apart
ALIASES = [
    [None],
    [0, False, 0.0],
    [0.0, -0.0],
    [np.float64(0.0), np.float64(-0.0)],
    [1, True, 1.0, np.float64(1.0)],
    [2, 2.0],
    [float("nan")],
    ["same"],
    [TileConfig(t_k=1), TileConfig(t_k=True)],
    [TileConfig(t_k=2), TileConfig(t_k=2, t_n=True)],
]
SHAPES = [(2, 3), (3, 2), (1, 2, 3, 3), (2, 1, 3, 3)]


@st.composite
def workloads(draw):
    """A workload whose every mapping param was drawn from an alias
    class, and those classes."""
    kind = draw(st.sampled_from(["conv", "gemm", "maxpool"]))
    names = ("inputs",) if kind == "maxpool" else ("weights", "inputs")
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    operands = {
        name: np.zeros(draw(st.sampled_from(SHAPES)), dtype=dtype)
        for name in names
    }
    classes = {
        name: draw(st.sampled_from(ALIASES))
        for name in MAPPING_PARAMS[kind] if draw(st.booleans())
    }
    workload = LayerWorkload(
        index=draw(st.integers(0, 9)), kind=kind,
        name=draw(st.sampled_from(["a", "b"])),
        params={name: draw(st.sampled_from(aliases))
                for name, aliases in classes.items()},
        operands=operands,
    )
    return workload, classes


@st.composite
def twins(draw):
    """A workload and a near copy: fresh operands of the same shapes and
    one change — a param swapped for an equal value, the operands in the
    other order or of another dtype."""
    first, first_class = draw(workloads())
    change = draw(st.sampled_from(["param", "param", "order", "dtype"]))
    params = dict(first.params)
    operands = {name: np.zeros_like(value)
                for name, value in first.operands.items()}
    if change == "param" and params:
        name = draw(st.sampled_from(sorted(params)))
        params[name] = draw(st.sampled_from(first_class[name]))
    elif change == "order":
        operands = dict(reversed(list(operands.items())))
    elif change == "dtype":
        operands = {name: value.astype(np.float16)
                    for name, value in operands.items()}
    second = LayerWorkload(
        index=first.index + 1, kind=first.kind, name="twin", params=params,
        operands=operands,
    )
    return first, second


@given(pair=twins(), lenses=st.sampled_from(list(LENS_SETS.values())))
@settings(max_examples=400, deadline=None)
def test_equal_fold_keys_are_equal_cache_keys(pair, lenses):
    first, second = pair
    config = tpu_like(num_pes=16)
    if first.fold_key() != second.fold_key():
        return
    assert hash(first.fold_key()) == hash(second.fold_key())
    assert SimCache.key(second, config, lenses) == \
        SimCache.key(first, config, lenses)


def test_a_twin_with_fresh_operands_folds():
    first = LayerWorkload(0, "conv", "a", {
        "stride": 1, "padding": 0, "groups": 1, "tile": None,
        "round_builder": object()}, {
        "weights": np.ones((4, 3, 3, 3), np.float32),
        "inputs": np.ones((1, 3, 8, 8), np.float32)})
    second = LayerWorkload(5, "conv", "b", {
        **first.params, "round_builder": None}, {
        name: value * 2 for name, value in first.operands.items()})
    assert first.fold_key() == second.fold_key()
