"""Event tracing: the null contract, span nesting, and the exporters."""

import json

import pytest

from repro.errors import SimulationError
from repro.observability.tracer import (
    NULL_TRACER,
    EventRecord,
    NullTracer,
    TraceEvent,
    Tracer,
    parse_chrome_trace,
)
from repro.observability.validate import validate_chrome_trace


# ---- NullTracer: the disabled fast path -----------------------------------
def test_null_tracer_is_disabled_and_stateless():
    null = NullTracer()
    assert null.enabled is False
    null.span("a", "comp", 0, 10, detail=1)
    null.begin("b", "comp", 0)
    null.end(5)
    null.instant("c", "comp", 3)
    null.counter("d", "comp", 4, {"x": 1.0})
    assert null.span_run("e", "comp", 0, 5, 1000, detail=1) is None
    assert null.events == ()
    assert null.to_wire() == []
    assert vars(null) == {}


def test_null_tracer_singleton_records_nothing():
    NULL_TRACER.span("a", "comp", 0, 10)
    assert NULL_TRACER.events == ()
    assert NULL_TRACER.enabled is False


def test_null_end_without_begin_does_not_raise():
    NullTracer().end(7)


# ---- Tracer: emission ------------------------------------------------------
def test_span_records_window():
    tracer = Tracer()
    tracer.span("DN:deliver", "dn", 10, 42, steps=4)
    (event,) = tracer.events
    assert event.name == "DN:deliver"
    assert event.component == "dn"
    assert event.phase == "X"
    assert (event.start, event.duration, event.end) == (10, 32, 42)
    assert event.args == {"steps": 4}
    assert event.depth == 0


def test_span_rejects_negative_window():
    with pytest.raises(SimulationError):
        Tracer().span("bad", "comp", 10, 9)


def test_begin_end_nesting_depth():
    tracer = Tracer()
    tracer.begin("layer", "acc", 0)
    tracer.span("inner", "dn", 2, 6)
    tracer.begin("round", "ctrl", 6)
    tracer.span("deep", "mn", 6, 8)
    tracer.end(9)
    tracer.end(12, cycles=12)
    by_name = {e.name: e for e in tracer.events}
    assert by_name["inner"].depth == 1
    assert by_name["deep"].depth == 2
    assert by_name["round"].depth == 1
    assert by_name["layer"].depth == 0
    # end() merges its kwargs into the begin() args
    assert by_name["layer"].args == {"cycles": 12}
    assert tracer.open_spans == 0


def test_end_without_begin_raises():
    with pytest.raises(SimulationError):
        Tracer().end(5)


def test_end_before_begin_cycle_raises():
    tracer = Tracer()
    tracer.begin("x", "comp", 10)
    with pytest.raises(SimulationError):
        tracer.end(9)


def test_clear_resets_events_and_stack():
    tracer = Tracer()
    tracer.begin("x", "comp", 0)
    tracer.span("y", "comp", 0, 1)
    tracer.clear()
    assert tracer.events == []
    assert tracer.open_spans == 0


# ---- span runs -------------------------------------------------------------
def _run_and_spans():
    """The same timeline twice: with a run, and with one span per window."""
    runs, spans = Tracer(), Tracer()
    for tracer in (runs, spans):
        tracer.begin("layer", "acc", 0)
        tracer.instant("GB:fill", "gb", 0)
    runs.span_run("PE:tile", "pe", 3, 5, 4, m=2, macs=8)
    for start in (3, 8, 13, 18):
        spans.span("PE:tile", "pe", start, start + 5, m=2, macs=8)
    for tracer in (runs, spans):
        tracer.span("DRAM:stall", "dram", 23, 25)
        tracer.end(25)
    return runs, spans


def test_span_run_is_one_stored_record_in_place():
    runs, spans = _run_and_spans()
    stored = runs.to_wire()
    assert [r["name"] for r in stored] == [
        "GB:fill", "PE:tile", "DRAM:stall", "layer"
    ]
    assert stored[1] == {
        "name": "PE:tile", "component": "pe", "start": 3, "period": 5,
        "count": 4, "depth": 1, "args": {"m": 2, "macs": 8},
    }
    assert len(spans.to_wire()) == 7


def test_span_run_expands_to_what_span_calls_leave():
    runs, spans = _run_and_spans()
    # exporters first: they write straight from the run
    assert runs.to_chrome() == spans.to_chrome()
    assert runs.to_jsonl() == spans.to_jsonl()
    assert len(runs.to_wire()) == 4
    assert runs.events == spans.events
    assert [e.depth for e in runs.events if e.name == "PE:tile"] == [1] * 4
    # reading events expanded the run once and for all
    assert runs.events is runs.events
    assert len(runs.to_wire()) == 7
    assert runs.to_chrome() == spans.to_chrome()
    # each expanded span owns its args
    first, second = [e for e in runs.events if e.name == "PE:tile"][:2]
    assert first.args == second.args and first.args is not second.args


def test_span_run_after_events_were_read_expands_too():
    tracer = Tracer()
    tracer.span_run("a", "c", 0, 2, 2)
    assert len(tracer.events) == 2
    tracer.span_run("b", "c", 4, 0, 3)  # zero-length spans are legal
    assert [(e.name, e.start, e.duration) for e in tracer.events] == [
        ("a", 0, 2), ("a", 2, 2), ("b", 4, 0), ("b", 4, 0), ("b", 4, 0),
    ]


def test_span_run_of_zero_spans_records_nothing():
    tracer = Tracer()
    tracer.span_run("a", "c", 0, 5, 0)
    assert tracer.to_wire() == [] and tracer.events == []
    assert "thread_name" not in tracer.to_chrome()


@pytest.mark.parametrize("period,count", [(-1, 3), (4, -1)])
def test_span_run_rejects_negative_period_and_count(period, count):
    tracer = Tracer()
    with pytest.raises(SimulationError, match="period=.*count="):
        tracer.span_run("bad", "c", 0, period, count)
    assert tracer.events == []


def test_extend_rebases_a_run_by_its_start():
    runs, spans = _run_and_spans()
    merged, reference = Tracer(), Tracer()
    merged.extend(runs.to_wire(), offset=100)
    reference.extend(spans.events, offset=100)
    assert len(merged.to_wire()) == 4
    assert merged.to_wire()[1]["start"] == 103
    assert merged.events == reference.events
    assert runs.to_wire()[1]["start"] == 3  # the source is untouched


def test_stored_since_returns_the_records_after_the_mark():
    tracer = Tracer()
    tracer.span("a", "c", 0, 2)
    mark = tracer.stored
    tracer.span_run("b", "c", 2, 1, 3)
    tracer.instant("i", "c", 5)
    assert [r.name for r in tracer.stored_since(mark)] == ["b", "i"]


def test_stored_since_refuses_a_mark_that_a_read_of_events_moved():
    tracer = Tracer()
    tracer.span_run("a", "c", 0, 2, 2)
    mark = tracer.stored
    tracer.span("b", "c", 4, 6)
    assert len(tracer.events) == 3  # the run expands in place
    with pytest.raises(SimulationError, match="after the mark"):
        tracer.stored_since(mark)


def test_clear_forgets_runs():
    tracer = Tracer()
    tracer.span_run("a", "c", 0, 2, 2)
    tracer.clear()
    assert tracer.events == [] and tracer.to_jsonl() == ""


# ---- Chrome exporter -------------------------------------------------------
def _sample_tracer():
    tracer = Tracer()
    tracer.begin("layer:conv", "accelerator", 0)
    tracer.span("DN:deliver", "dn", 4, 20, steps=2)
    tracer.span("MN:multiply", "mn", 4, 20)
    tracer.instant("stall", "gb", 21)
    tracer.counter("activity", "metrics", 16, {"gb_reads": 32.0})
    tracer.end(24, cycles=24)
    return tracer


def test_to_chrome_schema():
    text = _sample_tracer().to_chrome(metadata={"seed": 0})
    payload = json.loads(text)
    events = payload["traceEvents"]
    assert payload["otherData"]["time_unit"] == "cycle"
    assert payload["otherData"]["seed"] == 0
    phases = [e["ph"] for e in events]
    assert phases.count("M") == 1 + 5  # process_name + one lane per component
    # every non-metadata event targets a named lane
    names = {e["tid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    for event in events:
        if event["ph"] != "M":
            assert event["tid"] in names
    spans = [e for e in events if e["ph"] == "X"]
    assert {s["name"] for s in spans} == {"layer:conv", "DN:deliver", "MN:multiply"}
    assert all("dur" in s for s in spans)
    stats = validate_chrome_trace(payload)
    assert stats["spans"] == 3
    assert stats["instants"] == 1
    assert stats["counters"] == 1


def test_chrome_round_trip():
    tracer = _sample_tracer()
    parsed = parse_chrome_trace(tracer.to_chrome())
    # exporter writes in emission order; round-trip preserves the records
    assert len(parsed) == len(tracer.events)
    originals = {(e.name, e.phase): e for e in tracer.events}
    for event in parsed:
        original = originals[(event.name, event.phase)]
        assert event.component == original.component
        assert event.start == original.start
        assert event.duration == original.duration
        if event.phase == "X":  # depth is serialized for spans only
            assert event.depth == original.depth


def test_to_chrome_with_open_span_raises():
    tracer = Tracer()
    tracer.begin("x", "comp", 0)
    with pytest.raises(SimulationError):
        tracer.to_chrome()


def test_to_chrome_writes_file(tmp_path):
    path = tmp_path / "trace.json"
    _sample_tracer().to_chrome(path)
    validate_chrome_trace(json.loads(path.read_text(encoding="utf-8")))


# ---- JSONL exporter --------------------------------------------------------
def test_to_jsonl_one_object_per_event():
    tracer = _sample_tracer()
    lines = tracer.to_jsonl().strip().splitlines()
    assert len(lines) == len(tracer.events)
    first = json.loads(lines[0])
    assert set(first) == {
        "name", "component", "phase", "start", "duration", "depth", "args"
    }


def test_to_jsonl_empty_tracer():
    assert Tracer().to_jsonl() == ""


# ---- validator -------------------------------------------------------------
def test_validate_rejects_garbage():
    with pytest.raises(ValueError):
        validate_chrome_trace(["not", "an", "object"])
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"name": "x", "ph": "Z",
                                                "pid": 0, "tid": 0}]})


def test_validate_rejects_unnamed_lane():
    # an X event on a tid with no thread_name metadata
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "tid": 3, "ts": 0, "dur": 1},
        ]})


def test_parse_chrome_trace_rejects_non_trace():
    with pytest.raises(ValueError):
        parse_chrome_trace(json.dumps({"foo": 1}))


def test_trace_event_end_property():
    event = TraceEvent(name="x", component="c", phase="X", start=5, duration=7)
    assert event.end == 12


def test_a_stored_record_reads_like_its_event():
    """A caller holding the list :attr:`Tracer.events` returned sees
    later emissions as raw records; they still answer ``end``."""
    tracer = Tracer()
    held = tracer.events
    tracer.span("x", "c", 5, 12)
    record = held[-1]
    assert isinstance(record, EventRecord)
    assert record.end == 12 == tracer.events[-1].end
