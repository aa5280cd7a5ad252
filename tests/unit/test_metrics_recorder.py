"""Metrics time-series: sampling cadence, interpolation, ring bounds."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.noc.base import CounterSet
from repro.observability.metrics import (
    HEADLINE_COUNTERS,
    MetricsRecorder,
    MetricsSample,
    utilization_series,
)


def test_cadence_one_sample_per_grid_point():
    rec = MetricsRecorder(every=10)
    new = rec.observe(25, {"x": 50.0})
    assert [s.cycle for s in new] == [10, 20]
    new = rec.observe(40, {"x": 80.0})
    assert [s.cycle for s in new] == [30, 40]
    assert [s.cycle for s in rec.samples] == [10, 20, 30, 40]


def test_linear_interpolation_within_phase():
    rec = MetricsRecorder(every=10)
    rec.observe(40, {"x": 80.0})
    # uniform activity 0..40 => x grows 2/cycle
    assert [s.values["x"] for s in rec.samples] == [20.0, 40.0, 60.0, 80.0]


def test_observation_on_grid_point_is_exact():
    rec = MetricsRecorder(every=16)
    rec.observe(16, {"x": 7.0})
    (sample,) = rec.samples
    assert sample.cycle == 16
    assert sample.values["x"] == 7.0


def test_observations_between_grid_points_emit_nothing():
    rec = MetricsRecorder(every=100)
    assert rec.observe(30, {"x": 1.0}) == []
    assert rec.observe(60, {"x": 2.0}) == []
    assert len(rec) == 0
    (sample,) = rec.observe(150, {"x": 5.0})
    assert sample.cycle == 100
    # interpolated between the (60, 2.0) and (150, 5.0) observations
    assert sample.values["x"] == pytest.approx(2.0 + (40 / 90) * 3.0)


def test_backwards_cycle_raises():
    rec = MetricsRecorder(every=8)
    rec.observe(32, {"x": 1.0})
    with pytest.raises(SimulationError):
        rec.observe(31, {"x": 2.0})


def test_same_cycle_observation_is_allowed():
    rec = MetricsRecorder(every=8)
    rec.observe(8, {"x": 1.0})
    assert rec.observe(8, {"x": 1.0}) == []


def test_accepts_counterset():
    cs = CounterSet()
    cs.add("gb_reads", 64)
    rec = MetricsRecorder(every=4)
    rec.observe(4, cs)
    assert rec.samples[0].values["gb_reads"] == 64.0


def test_new_keys_appear_as_zero_before_first_observation():
    rec = MetricsRecorder(every=10)
    rec.observe(10, {"a": 10.0})
    rec.observe(20, {"a": 10.0, "b": 4.0})
    assert rec.samples[1].values == {"a": 10.0, "b": 4.0}


def test_ring_capacity_and_dropped():
    rec = MetricsRecorder(every=1, capacity=4)
    rec.observe(10, {"x": 10.0})
    assert len(rec) == 4
    assert [s.cycle for s in rec.samples] == [7, 8, 9, 10]
    assert rec.dropped == 6
    assert rec.total_emitted == 10


def test_invalid_construction():
    with pytest.raises(ConfigurationError):
        MetricsRecorder(every=0)
    with pytest.raises(ConfigurationError):
        MetricsRecorder(every=4, capacity=0)


def test_deltas_are_consecutive_differences():
    rec = MetricsRecorder(every=10)
    rec.observe(30, {"x": 90.0})
    deltas = rec.deltas()
    assert [d.cycle for d in deltas] == [20, 30]
    assert [d.values["x"] for d in deltas] == [30.0, 30.0]


def test_csv_export_shapes(tmp_path):
    rec = MetricsRecorder(every=10)
    rec.observe(30, {"x": 30.0, "y": 3.0})
    text = rec.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "cycle,x,y"
    assert len(lines) == 1 + 2  # header + 2 delta rows
    cumulative = rec.to_csv(cumulative=True).strip().splitlines()
    assert len(cumulative) == 1 + 3
    path = tmp_path / "m.csv"
    rec.to_csv(path)
    assert path.read_text(encoding="utf-8") == text


def test_json_export(tmp_path):
    rec = MetricsRecorder(every=5, capacity=8)
    rec.observe(10, {"x": 2.0})
    path = tmp_path / "m.json"
    rec.to_json(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["every"] == 5
    assert payload["capacity"] == 8
    assert payload["dropped"] == 0
    assert [s["cycle"] for s in payload["samples"]] == [5, 10]


def test_summary_keys():
    rec = MetricsRecorder(every=5)
    rec.observe(10, {"x": 1.0})
    assert rec.summary() == {
        "every": 5.0, "samples": 2.0, "dropped": 0.0, "x": 1.0,
    }


def test_summary_reports_last_cumulative_values():
    rec = MetricsRecorder(every=10)
    rec.observe(20, {"gb_reads": 40.0, "gb_writes": 8.0})
    summary = rec.summary()
    assert summary["samples"] == 2.0
    assert summary["gb_reads"] == 40.0
    assert summary["gb_writes"] == 8.0


def test_summary_empty_ring_zeroes_headline_columns():
    rec = MetricsRecorder(every=64)
    summary = rec.summary()
    assert summary["samples"] == 0.0
    for column in HEADLINE_COUNTERS:
        assert summary[column] == 0.0
    # explicit column lists are honored even when nothing was recorded
    assert rec.summary(columns=["x"])["x"] == 0.0


def test_utilization_series():
    rec = MetricsRecorder(every=10)
    # 4 multipliers, fully busy: 40 mults per 10-cycle window
    rec.observe(20, {"mn_multiplications": 80.0})
    rows = utilization_series(rec, num_ms=4)
    assert [r["utilization"] for r in rows] == [1.0]
    with pytest.raises(ConfigurationError):
        utilization_series(rec, num_ms=0)


def test_sample_is_frozen():
    sample = MetricsSample(cycle=1, values={"x": 1.0})
    with pytest.raises(AttributeError):
        sample.cycle = 2


@settings(max_examples=300, deadline=None)
@given(
    every=st.sampled_from([1, 7, 64, 1000]),
    capacity=st.integers(1, 40),
    prior=st.dictionaries(
        st.sampled_from("abcd"), st.integers(0, 10**6), max_size=3
    ),
    prior_cycle=st.integers(0, 2000),
    gap=st.integers(0, 300),
    period=st.integers(1, 400),
    count=st.sampled_from([1, 2]) | st.integers(3, 300),
    delta=st.dictionaries(
        st.sampled_from("abcdef"), st.integers(0, 1000), max_size=5
    ),
)
def test_observe_run_equals_one_observe_per_phase(
    every, capacity, prior, prior_cycle, gap, period, count, delta
):
    """One ``observe_run`` records what ``count`` ``observe`` calls do:
    the samples (bytes included), ``dropped``, ``total_emitted`` and the
    interpolation anchor — across a gap before the run, keys the
    previous observation lacks and a ring small enough to overflow."""
    def recorder():
        rec = MetricsRecorder(every=every, capacity=capacity)
        rec.observe(prior_cycle, prior)
        return rec

    run, oracle = recorder(), recorder()
    start = prior_cycle + gap
    new = run.observe_run(start, period, count, delta)
    expected = []
    values = dict(oracle._last_values)
    for phase in range(1, count + 1):
        values = {
            key: values.get(key, 0) + delta.get(key, 0)
            for key in values.keys() | delta.keys()
        }
        expected += oracle.observe(start + phase * period, values)
    assert new == expected
    assert run.to_json() == oracle.to_json()
    assert (run.dropped, run.total_emitted) == (
        oracle.dropped, oracle.total_emitted
    )
    assert run._last_cycle == oracle._last_cycle
    assert run._last_values == oracle._last_values


def test_an_empty_run_observes_nothing():
    rec = MetricsRecorder(every=4)
    rec.observe(6, {"x": 3})
    assert rec.observe_run(100, 10, 0, {"x": 1}) == []
    assert (rec._last_cycle, rec._last_values) == (6, {"x": 3.0})
