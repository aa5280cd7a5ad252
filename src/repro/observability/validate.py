"""Observability export schema validation (traces and metrics).

:func:`validate_chrome_trace` checks the structural contract the trace
exporter promises (and ``chrome://tracing`` / Perfetto require): object
format with a ``traceEvents`` list, well-formed phase codes, numeric
non-negative timestamps/durations, and a ``thread_name`` metadata event
for every thread lane in use. :func:`validate_metrics_json` does the
same for :meth:`~repro.observability.metrics.MetricsRecorder.to_json`
exports: a ``samples`` list of non-decreasing cycles with numeric
cumulative values.

Runnable as a module for CI smoke checks; the file kind is detected from
its top-level keys (force it with ``--kind``)::

    python -m repro.observability.validate trace.json --expect DN: --expect RN:
    python -m repro.observability.validate metrics.json --expect gb_reads
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

#: phase codes the repro tracer emits
KNOWN_PHASES = {"X", "i", "C", "M"}


def validate_chrome_trace(payload: object) -> dict:
    """Validate a parsed Chrome trace object; returns summary statistics.

    Raises :class:`ValueError` describing the first violation found.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace must be a JSON object (Chrome object format)")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    if not events:
        raise ValueError("trace has no events")

    named_tids = set()
    used_tids = set()
    spans = instants = counters = 0
    span_names = set()
    for index, record in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: event is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in record:
                raise ValueError(f"{where}: missing required field {key!r}")
        phase = record["ph"]
        if phase not in KNOWN_PHASES:
            raise ValueError(f"{where}: unknown phase code {phase!r}")
        if not isinstance(record["name"], str) or not record["name"]:
            raise ValueError(f"{where}: event name must be a non-empty string")
        if phase == "M":
            if record["name"] == "thread_name":
                named_tids.add(record["tid"])
            continue
        used_tids.add(record["tid"])
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = record.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"{where}: complete event needs a non-negative 'dur'"
                )
            spans += 1
            span_names.add(record["name"])
        elif phase == "i":
            instants += 1
        elif phase == "C":
            args = record.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(value, (int, float)) for value in args.values()
            ):
                raise ValueError(
                    f"{where}: counter event needs numeric 'args' values"
                )
            counters += 1
    unnamed = used_tids - named_tids
    if unnamed:
        raise ValueError(
            f"thread lanes without thread_name metadata: {sorted(unnamed)}"
        )
    if spans == 0:
        raise ValueError("trace contains no spans (phase 'X' events)")
    return {
        "events": len(events),
        "spans": spans,
        "instants": instants,
        "counters": counters,
        "threads": len(used_tids),
        "span_names": sorted(span_names),
    }


def validate_metrics_json(payload: object) -> dict:
    """Validate a parsed metrics JSON export; returns summary statistics.

    Checks the contract of
    :meth:`~repro.observability.metrics.MetricsRecorder.to_json`:
    ``every`` / ``capacity`` positive, ``dropped`` non-negative, and a
    ``samples`` list whose cycles are non-negative, non-decreasing and
    whose values are numeric. Sample cycles are *not* required to be
    multiples of ``every``: the model runner rebases each layer's samples
    by layer-start offsets that land off the grid.

    Raises :class:`ValueError` describing the first violation found.
    """
    if not isinstance(payload, dict):
        raise ValueError("metrics export must be a JSON object")
    samples = payload.get("samples")
    if not isinstance(samples, list):
        raise ValueError("metrics export must carry a 'samples' list")
    every = payload.get("every")
    if not isinstance(every, int) or every < 1:
        raise ValueError("'every' must be a positive integer cadence")
    capacity = payload.get("capacity")
    if not isinstance(capacity, int) or capacity < 1:
        raise ValueError("'capacity' must be a positive integer")
    dropped = payload.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        raise ValueError("'dropped' must be a non-negative integer")

    columns = set()
    last_cycle = -1
    for index, sample in enumerate(samples):
        where = f"samples[{index}]"
        if not isinstance(sample, dict):
            raise ValueError(f"{where}: sample is not an object")
        cycle = sample.get("cycle")
        if not isinstance(cycle, int) or cycle < 0:
            raise ValueError(f"{where}: 'cycle' must be a non-negative integer")
        if cycle < last_cycle:
            raise ValueError(
                f"{where}: cycles went backwards ({cycle} < {last_cycle})"
            )
        last_cycle = cycle
        values = sample.get("values")
        if not isinstance(values, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values.values()
        ):
            raise ValueError(f"{where}: 'values' must map names to numbers")
        columns.update(values)
    return {
        "samples": len(samples),
        "every": every,
        "dropped": dropped,
        "last_cycle": max(last_cycle, 0),
        "columns": sorted(columns),
    }


def _detect_kind(payload: object) -> str:
    if isinstance(payload, dict) and "traceEvents" in payload:
        return "trace"
    if isinstance(payload, dict) and "samples" in payload:
        return "metrics"
    raise ValueError(
        "cannot detect file kind (neither 'traceEvents' nor 'samples' "
        "present); force one with --kind"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.validate",
        description="validate a Chrome trace or metrics JSON export",
    )
    parser.add_argument("file", help="path to the trace or metrics JSON")
    parser.add_argument(
        "--kind", choices=("auto", "trace", "metrics"), default="auto",
        help="file kind (default: detect from top-level keys)",
    )
    parser.add_argument(
        "--expect", action="append", default=[],
        help="traces: require a span whose name starts with this prefix; "
             "metrics: require this counter column (repeatable)",
    )
    args = parser.parse_args(argv)
    path = Path(args.file)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        kind = _detect_kind(payload) if args.kind == "auto" else args.kind
        if kind == "trace":
            stats = validate_chrome_trace(payload)
            for prefix in args.expect:
                if not any(
                    name.startswith(prefix) for name in stats["span_names"]
                ):
                    raise ValueError(f"no span named {prefix}*")
        else:
            stats = validate_metrics_json(payload)
            for column in args.expect:
                if column not in stats["columns"]:
                    raise ValueError(f"no counter column {column!r}")
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"invalid {args.kind} file {path}: {exc}", file=sys.stderr)
        return 1
    if kind == "trace":
        print(
            f"valid trace: {stats['events']} events "
            f"({stats['spans']} spans, {stats['counters']} counter samples, "
            f"{stats['instants']} instants) across {stats['threads']} lanes"
        )
    else:
        print(
            f"valid metrics export: {stats['samples']} samples "
            f"every {stats['every']} cycles across "
            f"{len(stats['columns'])} columns "
            f"(last cycle {stats['last_cycle']}, {stats['dropped']} dropped)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
