"""Cycle-level event tracing.

The simulator fast-forwards through steady phases, so a trace is not a
log of ``cycle()`` calls: engine components emit *spans* — named windows
on the simulated-cycle axis ("this DN delivered operands during cycles
[120, 152)") — plus instant and counter events. :class:`Tracer` collects
them; :class:`NullTracer` is the always-installed no-op fast path, so an
untraced simulation pays only an attribute lookup and a predictable
``if tracer.enabled`` branch per phase.

Records are stored raw: a span, instant or counter sample is one
:class:`EventRecord` tuple, and a regular schedule — the systolic
array's back-to-back tiles of one shape — one :class:`SpanRun` standing
for ``count`` spans of ``period`` cycles each. A run keeps its place in
the record list and is expanded only where something reads the spans
(:attr:`Tracer.events`, the exporters), so what a reader sees is what
``count`` :meth:`Tracer.span` calls would have left; the frozen
:class:`TraceEvent` objects :attr:`Tracer.events` returns are built only
when it is read.

Timestamps are **accelerator clock cycles**, not wall time. The Chrome
exporter writes cycles into the ``ts``/``dur`` microsecond fields, so in
``chrome://tracing`` / Perfetto one displayed microsecond equals one
simulated cycle (the ``otherData.time_unit`` field records this).

Two exporters are provided:

- :meth:`Tracer.to_chrome` — the Chrome ``trace_event`` JSON object
  format (``{"traceEvents": [...]}``) with per-component thread lanes,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
- :meth:`Tracer.to_jsonl` — one plain JSON object per line, for ad-hoc
  scripting (``jq``, pandas).

:func:`parse_chrome_trace` reads the Chrome format back into
:class:`TraceEvent` records (the schema round-trip the tests pin down).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple,
    Union,
)

from repro.errors import SimulationError

#: Chrome trace_event phase codes used by this tracer.
PHASE_SPAN = "X"      # complete event (ts + dur)
PHASE_INSTANT = "i"   # instant event
PHASE_COUNTER = "C"   # counter sample
PHASE_METADATA = "M"  # thread/process naming


@dataclass(frozen=True)
class TraceEvent:
    """One trace record on the simulated-cycle timeline."""

    name: str
    component: str
    phase: str
    start: int
    duration: int = 0
    depth: int = 0
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.start + self.duration


class EventRecord(NamedTuple):
    """One stored span, instant or counter sample: the fields of a
    :class:`TraceEvent`, in its order, as a plain tuple."""

    name: str
    component: str
    phase: str
    start: int
    duration: int
    depth: int
    args: Mapping[str, object]

    @property
    def end(self) -> int:
        return self.start + self.duration

    def event(self) -> TraceEvent:
        """The record as a :class:`TraceEvent` owning a copy of ``args``."""
        name, component, phase, start, duration, depth, args = self
        return TraceEvent(name, component, phase, start, duration, depth,
                          dict(args))


def _plain(event: Union[TraceEvent, EventRecord]) -> Dict[str, object]:
    """``dataclasses.asdict(event)`` without the deep copy."""
    return {
        "name": event.name, "component": event.component,
        "phase": event.phase, "start": event.start,
        "duration": event.duration, "depth": event.depth,
        "args": dict(event.args),
    }


class SpanRun(NamedTuple):
    """``count`` back-to-back spans of ``period`` cycles, stored once.

    Span ``i`` covers ``[start + i * period, start + (i + 1) * period)``;
    all share ``name``, ``component``, ``depth`` and ``args``.
    """

    name: str
    component: str
    start: int
    period: int
    count: int
    depth: int
    args: Mapping[str, object]

    def starts(self) -> Iterator[int]:
        """The start cycle of every span of the run, in order."""
        return (self.start + i * self.period for i in range(self.count))

    def expand(self) -> Iterator[TraceEvent]:
        """The spans as individual events, each with its own ``args``."""
        for start in self.starts():
            yield TraceEvent(
                name=self.name, component=self.component, phase=PHASE_SPAN,
                start=start, duration=self.period, depth=self.depth,
                args=dict(self.args),
            )


def _check_run(period: int, count: int, where: str) -> None:
    if period < 0 or count < 0:
        raise SimulationError(
            f"{where}: a span run needs period >= 0 and count >= 0, "
            f"got period={period!r}, count={count!r}"
        )


_REQUIRED = object()


def _wire_field(
    record: Mapping[str, Any], index: int, key: str,
    convert: Callable[[Any], Any], default: Any = _REQUIRED,
) -> Any:
    """``convert(record[key])``, or a :class:`SimulationError` naming the
    record and the field when it is missing or does not convert."""
    try:
        value = record[key]
    except KeyError:
        if default is not _REQUIRED:
            return default
        raise SimulationError(
            f"trace record {index}: missing field {key!r}"
        ) from None
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise SimulationError(
            f"trace record {index}: field {key!r} has an unusable value "
            f"{value!r}"
        ) from None


def _from_wire(
    record: Mapping[str, Any], index: int
) -> Union[EventRecord, SpanRun]:
    """One :meth:`Tracer.to_wire` mapping back into its record."""
    name = _wire_field(record, index, "name", str)
    component = _wire_field(record, index, "component", str)
    start = _wire_field(record, index, "start", operator.index)
    depth = _wire_field(record, index, "depth", operator.index, 0)
    args = _wire_field(record, index, "args", dict, {})
    if "count" in record:
        period = _wire_field(record, index, "period", operator.index)
        count = _wire_field(record, index, "count", operator.index)
        _check_run(period, count, f"trace record {index}")
        return SpanRun(name, component, start, period, count, depth, args)
    return EventRecord(
        name, component, _wire_field(record, index, "phase", str), start,
        _wire_field(record, index, "duration", operator.index, 0), depth,
        args,
    )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Installed on every component (:class:`~repro.noc.base.
    ClockedComponent`) by default so emission sites never need a ``None``
    check; the
    ``enabled`` flag lets hot paths skip building event arguments
    entirely. The contract — no state, no allocation, no recorded
    events — is pinned by ``tests/unit/test_tracer.py``.
    """

    enabled = False
    events: Tuple[TraceEvent, ...] = ()

    def span(self, name: str, component: str, start: int, end: int, **args) -> None:
        pass

    def span_run(self, name: str, component: str, start: int, period: int,
                 count: int, **args) -> None:
        pass

    def begin(self, name: str, component: str, cycle: int, **args) -> None:
        pass

    def end(self, cycle: int, **args) -> None:
        pass

    def instant(self, name: str, component: str, cycle: int, **args) -> None:
        pass

    def counter(self, name: str, component: str, cycle: int,
                values: Mapping[str, float]) -> None:
        pass

    def extend(self, events, offset: int = 0) -> None:
        pass

    def to_wire(self) -> List[Dict[str, object]]:
        return []


#: process-wide singleton — the default tracer of every component
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Collects span / instant / counter events on the cycle timeline."""

    enabled = True

    def __init__(self) -> None:
        # in emission order; a SpanRun stands where its spans would. The
        # first `_built` entries are TraceEvents (what `events` built),
        # the rest raw records
        self._events: List[Union[TraceEvent, EventRecord, SpanRun]] = []
        self._built = 0
        # (name, component, start_cycle, args) of the open begin() spans
        self._stack: List[Tuple[str, str, int, Dict[str, object]]] = []

    # ---- emission -----------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:  # type: ignore[override]
        """Every event, one per span: reading this builds a
        :class:`TraceEvent` for each record stored since the last read
        (expanding runs) and stores it in the record's place."""
        events = self._events
        if self._built < len(events):
            tail = events[self._built:]
            del events[self._built:]
            for item in tail:
                if isinstance(item, SpanRun):
                    events.extend(item.expand())
                else:
                    events.append(item.event())
            self._built = len(events)
        return events  # type: ignore[return-value]

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    @property
    def stored(self) -> int:
        """How many records are stored (a span run is one): a mark for
        :meth:`stored_since`, valid until :attr:`events` is next read."""
        return len(self._events)

    def stored_since(
        self, mark: int
    ) -> List[Union[TraceEvent, EventRecord, SpanRun]]:
        """The records stored after :attr:`stored` read ``mark``, in the
        form :meth:`extend` takes back. Reading :attr:`events` in between
        expands runs in place, so the mark no longer indexes the records:
        that is an error rather than a wrong slice."""
        if self._built > mark:
            raise SimulationError(
                f"Tracer.events was read after the mark {mark} was taken; "
                f"the records since it can no longer be told apart"
            )
        return self._events[mark:]

    def span(self, name: str, component: str, start: int, end: int, **args) -> None:
        """Record a closed window [start, end) as one complete event."""
        if end < start:
            raise SimulationError(
                f"span {name!r} ends before it starts ({end} < {start})"
            )
        self._events.append(EventRecord(
            name, component, PHASE_SPAN, int(start), int(end - start),
            len(self._stack), args,
        ))

    def span_run(self, name: str, component: str, start: int, period: int,
                 count: int, **args) -> None:
        """Record ``count`` back-to-back spans of ``period`` cycles, the
        first at ``start``, as one :class:`SpanRun` (nothing if 0)."""
        _check_run(period, count, f"span run {name!r}")
        if count:
            self._events.append(SpanRun(
                name, component, int(start), int(period), int(count),
                len(self._stack), args,
            ))

    def begin(self, name: str, component: str, cycle: int, **args) -> None:
        """Open a nested span; close it with :meth:`end`."""
        self._stack.append((name, component, int(cycle), dict(args)))

    def end(self, cycle: int, **args) -> None:
        """Close the innermost open span at ``cycle``."""
        if not self._stack:
            raise SimulationError("Tracer.end() without a matching begin()")
        name, component, start, open_args = self._stack.pop()
        if cycle < start:
            raise SimulationError(
                f"span {name!r} ends before it starts ({cycle} < {start})"
            )
        open_args.update(args)
        self._events.append(EventRecord(
            name, component, PHASE_SPAN, start, int(cycle) - start,
            len(self._stack), open_args,
        ))

    def instant(self, name: str, component: str, cycle: int, **args) -> None:
        self._events.append(EventRecord(
            name, component, PHASE_INSTANT, int(cycle), 0, len(self._stack),
            args,
        ))

    def counter(self, name: str, component: str, cycle: int,
                values: Mapping[str, float]) -> None:
        """Record a counter sample (rendered as stacked area tracks)."""
        self._events.append(EventRecord(
            name, component, PHASE_COUNTER, int(cycle), 0, 0,
            {k: float(v) for k, v in values.items()},
        ))

    def extend(self, events, offset: int = 0) -> None:
        """Merge foreign records, shifted by ``offset`` cycles.

        The model runner traces each layer on its own accelerator, whose
        clock starts at zero, and rebases those records onto the
        model timeline by passing the layer's absolute start cycle; the
        accelerator replays a folded layer's twin the same way. A record
        may be a :class:`TraceEvent`, an :class:`EventRecord`, a
        :class:`SpanRun` (rebased by its ``start``, still one record) or
        the :meth:`to_wire` mapping of any of them; a malformed mapping is
        a :class:`~repro.errors.SimulationError` naming its index and
        field.
        """
        offset = int(offset)
        append = self._events.append
        for index, record in enumerate(events):
            if isinstance(record, Mapping):
                record = _from_wire(record, index)
            if isinstance(record, SpanRun):
                if record.count:
                    append(record._replace(
                        start=record.start + offset, args=dict(record.args),
                    ))
                continue
            append(EventRecord(
                record.name, record.component, record.phase,
                record.start + offset, record.duration, record.depth,
                dict(record.args),
            ))

    def clear(self) -> None:
        self._events = []
        self._built = 0
        self._stack = []

    # ---- exporters ----------------------------------------------------
    def to_wire(self) -> List[Dict[str, object]]:
        """The stored records as plain picklable mappings, runs *not*
        expanded: an event as its ``dataclasses.asdict`` form (which its
        record's fields are), a run as its fields (told apart by the
        ``count`` key). :meth:`extend` reads them back."""
        return [
            {**item._asdict(), "args": dict(item.args)}
            if isinstance(item, SpanRun) else _plain(item)
            for item in self._events
        ]

    def _plain_events(self) -> Iterator[Dict[str, object]]:
        """Every event as its plain mapping, written straight from the
        runs (the spans of one run share their ``args``)."""
        for item in self._events:
            if isinstance(item, SpanRun):
                for start in item.starts():
                    yield {
                        "name": item.name, "component": item.component,
                        "phase": PHASE_SPAN, "start": start,
                        "duration": item.period, "depth": item.depth,
                        "args": item.args,
                    }
            else:
                yield _plain(item)

    def _thread_ids(self) -> Dict[str, int]:
        """Stable component → tid mapping in first-appearance order."""
        tids: Dict[str, int] = {}
        for item in self._events:
            if item.component not in tids:
                tids[item.component] = len(tids)
        return tids

    def to_chrome(self, path: Optional[Union[str, Path]] = None,
                  metadata: Optional[Mapping[str, object]] = None) -> str:
        """Serialize to Chrome ``trace_event`` JSON (object format)."""
        if self._stack:
            raise SimulationError(
                f"{len(self._stack)} span(s) still open; end() them before export"
            )
        tids = self._thread_ids()
        records: List[Dict[str, object]] = [{
            "name": "process_name", "ph": PHASE_METADATA, "pid": 0, "tid": 0,
            "args": {"name": "stonne-repro"},
        }]
        for component, tid in tids.items():
            records.append({
                "name": "thread_name", "ph": PHASE_METADATA, "pid": 0,
                "tid": tid, "args": {"name": component},
            })
        for event in self._plain_events():
            phase = event["phase"]
            record: Dict[str, object] = {
                "name": event["name"], "ph": phase, "pid": 0,
                "tid": tids[event["component"]], "ts": event["start"],
            }
            if phase == PHASE_SPAN:
                record["dur"] = event["duration"]
            if phase == PHASE_INSTANT:
                record["s"] = "t"  # thread-scoped instant
            args: Dict[str, object] = dict(event["args"])
            if phase == PHASE_SPAN and event["depth"]:
                args.setdefault("depth", event["depth"])
            if args or phase == PHASE_COUNTER:
                record["args"] = args
            records.append(record)
        payload: Dict[str, object] = {
            "traceEvents": records,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "cycle", **dict(metadata or {})},
        }
        text = json.dumps(payload, indent=1)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_jsonl(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialize to one JSON object per line."""
        lines = [
            json.dumps(event, sort_keys=True) for event in self._plain_events()
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


def parse_chrome_trace(text: str) -> List[TraceEvent]:
    """Read a Chrome trace JSON produced by :meth:`Tracer.to_chrome`
    back into :class:`TraceEvent` records (metadata events excluded)."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace object: missing 'traceEvents'")
    names: Dict[int, str] = {}
    for record in payload["traceEvents"]:
        if record.get("ph") == PHASE_METADATA and record.get("name") == "thread_name":
            names[int(record["tid"])] = str(record["args"]["name"])
    events: List[TraceEvent] = []
    for record in payload["traceEvents"]:
        phase = record.get("ph")
        if phase == PHASE_METADATA:
            continue
        args = dict(record.get("args", {}))
        depth = int(args.pop("depth", 0))
        events.append(TraceEvent(
            name=str(record["name"]),
            component=names.get(int(record["tid"]), str(record["tid"])),
            phase=str(phase),
            start=int(record["ts"]),
            duration=int(record.get("dur", 0)),
            depth=depth,
            args=args,
        ))
    return events
