"""Grouped convolutions on the systolic array keep their place in the layer.

``Accelerator.run_conv`` runs one GEMM per group on the systolic engine.
Each GEMM used to start at layer-relative cycle 0, so the ``PE:tile``
spans of later groups overlapped the first group's and a metrics
recorder died with ``observation cycle went backwards`` (every grouped
layer of mobilenets / ssd-mobilenets, every TPU point, both engine
modes). The groups run back to back: each starts where the last ended.
"""

import numpy as np
import pytest

from repro.config import EngineMode, tpu_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import simulate_parallel
from repro.observability import Observability

MODES = (EngineMode.CYCLE, EngineMode.VECTOR)


def _run_grouped_conv(mode, **lenses):
    """A lead-in GEMM (so the layer base is not 0), then an 8-group 3x3
    conv on a 4x4 array; returns (observability, conv layer report, base)."""
    rng = np.random.default_rng(11)
    obs = Observability.create(**lenses)
    acc = Accelerator(
        tpu_like(16).with_updates(engine_mode=mode), observability=obs
    )
    acc.run_gemm(
        rng.standard_normal((6, 5)).astype(np.float32),
        rng.standard_normal((5, 7)).astype(np.float32),
    )
    base = acc.report.total_cycles
    acc.run_conv(
        rng.standard_normal((16, 2, 3, 3)).astype(np.float32),
        rng.standard_normal((1, 16, 10, 10)).astype(np.float32),
        groups=8, name="grouped",
    )
    return obs, acc.report.layers[-1], base


@pytest.mark.parametrize("mode", MODES)
def test_group_spans_tile_the_layer(mode):
    obs, layer, base = _run_grouped_conv(mode, trace=True)
    engine_spans = [
        e for e in obs.tracer.events
        if e.name in ("PE:tile", "DRAM:stall") and e.start >= base
    ]
    tiles = [e for e in engine_spans if e.name == "PE:tile"]
    # 8 groups x (2 filters x 64 pixels on a 4x4 array = 16 tiles)
    assert len(tiles) == 8 * 16
    cursor = base
    for event in engine_spans:
        assert event.start == cursor, (event, cursor)
        assert event.duration > 0
        cursor = event.end
    assert cursor == base + layer.cycles
    # this layer fits the global buffer: no DRAM stall, so the tile
    # spans alone are contiguous from the layer base to its last cycle
    assert engine_spans == tiles
    assert tiles[-1].end == base + layer.cycles


def test_both_modes_emit_identical_events():
    ref_obs, ref_layer, _ = _run_grouped_conv(EngineMode.CYCLE, trace=True)
    vec_obs, vec_layer, _ = _run_grouped_conv(EngineMode.VECTOR, trace=True)
    assert vec_layer.to_payload() == ref_layer.to_payload()
    assert list(vec_obs.tracer.events) == list(ref_obs.tracer.events)


@pytest.mark.parametrize("mode", MODES)
def test_metrics_sampling_survives_grouped_conv(mode):
    obs, layer, base = _run_grouped_conv(mode, metrics_every=4)
    cycles = [s.cycle for s in obs.metrics.samples if s.cycle > base]
    assert cycles and cycles == sorted(set(cycles))
    assert cycles[-1] <= base + layer.cycles
    # positions moved, results did not
    _, plain, _ = _run_grouped_conv(mode)
    assert layer.cycles == plain.cycles
    assert layer.counters.as_dict() == plain.counters.as_dict()


def test_parallel_mobilenets_with_metrics_completes(jobs):
    model = build_model("mobilenets", seed=0)
    x = model_input("mobilenets", batch=1, seed=1)
    obs = Observability.create(metrics_every=16)
    acc = Accelerator(tpu_like(16), observability=obs)
    run = simulate_parallel(model, acc, x, jobs=jobs)
    assert run.report.total_cycles > 0
    cycles = [s.cycle for s in obs.metrics.samples]
    assert cycles and cycles == sorted(set(cycles))
