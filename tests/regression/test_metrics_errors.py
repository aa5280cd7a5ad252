"""Typed errors from the metrics recorder.

Each case used to escape as a bare ``ValueError`` or ``TypeError``: a
negative cadence at construction, a fractional one only mid-layer (from
``range()``, after counters had moved), an observation that went
backwards and a utilization series over zero multipliers. Bad settings
are now a :class:`ConfigurationError` before anything runs; a backwards
observation — the engine's clock, not a user setting — a
:class:`SimulationError`.
"""

import pytest

from repro.config import tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError, SimulationError
from repro.observability import Observability
from repro.observability.metrics import (
    MetricsRecorder,
    MetricsSample,
    utilization_series,
)


@pytest.mark.parametrize("every", [-1, 0.5, 2.5, "64"])
def test_a_bad_cadence_is_refused_at_construction(every):
    with pytest.raises(ConfigurationError, match="every="):
        Observability.create(metrics_every=every)


def test_a_fractional_cadence_never_reaches_a_layer():
    """``metrics_every=2.5`` used to construct and then die inside the
    first sample, with the layer's counters already written."""
    with pytest.raises(ConfigurationError):
        obs = Observability.create(metrics_every=2.5)
        Accelerator(tpu_like(num_pes=16), observability=obs).systolic \
            .time_gemm(8, 8, 8)


@pytest.mark.parametrize("capacity", [0, -3, 1.5, None])
def test_a_bad_ring_capacity_is_refused(capacity):
    with pytest.raises(ConfigurationError, match="capacity="):
        MetricsRecorder(every=8, capacity=capacity)


def test_integer_likes_are_accepted():
    import numpy as np

    rec = MetricsRecorder(every=np.int64(8), capacity=np.int32(4))
    assert (rec.every, rec.capacity) == (8, 4)
    assert type(rec.every) is int


def test_backwards_observations_are_simulation_errors():
    rec = MetricsRecorder(every=8)
    rec.observe(40, {"x": 1})
    with pytest.raises(SimulationError, match="backwards"):
        rec.observe(39, {"x": 2})
    with pytest.raises(SimulationError, match="backwards"):
        rec.ingest([MetricsSample(cycle=10, values={"x": 3.0})])
    with pytest.raises(SimulationError, match="backwards"):
        rec.observe_run(20, 10, 3, {"x": 1})  # first phase ends at 30
    with pytest.raises(SimulationError, match="period"):
        rec.observe_run(40, 0, 3, {"x": 1})
    with pytest.raises(SimulationError, match="count"):
        rec.observe_run(40, 4, -1, {"x": 1})
    assert (rec._last_cycle, len(rec)) == (40, 5)


def test_utilization_over_zero_multipliers_is_a_configuration_error():
    rec = MetricsRecorder(every=10)
    rec.observe(20, {"mn_multiplications": 80})
    with pytest.raises(ConfigurationError, match="num_ms"):
        utilization_series(rec, num_ms=0)
