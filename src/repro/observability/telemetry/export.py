"""Telemetry exporters: Prometheus text exposition and JSONL snapshots.

:func:`to_prometheus` renders a :class:`Telemetry` registry in the
Prometheus text exposition format (``# HELP``/``# TYPE`` headers,
labelled samples, histogram ``_bucket``/``_sum``/``_count`` series with
cumulative ``le`` bounds) for a Prometheus server or any scraper to
read; the project itself never parses it back.

:func:`write_snapshot` appends one JSON object per call to a ``.jsonl``
file, so long sweeps can leave a time series of registry states behind.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.observability.telemetry.facade import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    LabelKey,
    Telemetry,
)


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _render_labels(key: LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = tuple(key) + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: Telemetry) -> str:
    """Render every instrument in Prometheus text exposition format."""
    lines: List[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        lines.append(f"# HELP {name} {_escape(instrument.help)}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, (CounterMetric, GaugeMetric)):
            for key, value in sorted(instrument.series().items()):
                assert isinstance(value, float)
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
        elif isinstance(instrument, HistogramMetric):
            for key, data in sorted(instrument.series().items()):
                assert isinstance(data, dict)
                buckets = data["buckets"]
                assert isinstance(buckets, list)
                # HistogramMetric stores cumulative bucket counts, which
                # is exactly the exposition-format contract for le=
                for bound, count in zip(instrument.buckets, buckets):
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(key, (('le', repr(float(bound))),))}"
                        f" {count}"
                    )
                total = data["count"]
                assert isinstance(total, int)
                lines.append(
                    f"{name}_bucket{_render_labels(key, (('le', '+Inf'),))}"
                    f" {total}"
                )
                total_sum = data["sum"]
                assert isinstance(total_sum, float)
                lines.append(
                    f"{name}_sum{_render_labels(key)} "
                    f"{_format_value(total_sum)}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {total}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_snapshot(
    registry: Telemetry,
    path: Union[str, Path],
    context: Optional[Dict[str, object]] = None,
) -> Path:
    """Append one JSONL snapshot of the registry to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    record: Dict[str, object] = {"telemetry": registry.snapshot()}
    if context:
        record["context"] = dict(context)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def write_telemetry(
    registry: Telemetry,
    path: Union[str, Path],
    context: Optional[Dict[str, object]] = None,
) -> Path:
    """CLI entry: a ``.jsonl`` path gets a snapshot, any other Prometheus text."""
    target = Path(path)
    if target.suffix == ".jsonl":
        return write_snapshot(registry, target, context=context)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_prometheus(registry), encoding="utf-8")
    return target
