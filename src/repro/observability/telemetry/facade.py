"""The unified host-side metrics facade: counters, gauges, histograms.

The simulated machine already has first-class observability (cycle-level
traces, counter time series, the run registry); this module gives the
*simulator host* the same treatment. One :class:`Telemetry` registry
holds named instruments with Prometheus-style labels:

- :class:`CounterMetric` — monotonically increasing totals
  (cache hits, registry writes, evictions);
- :class:`GaugeMetric` — last-write-wins levels
  (cache bytes on disk per shard);
- :class:`HistogramMetric` — bucketed distributions of observations
  (per-stage wall seconds, per-layer task seconds).

Everything is plain instance state behind one lock per instrument, so
instrumented call sites are safe to hit from any thread.
A process-global registry (:func:`telemetry`) starts *disabled*: every
instrument method is a cheap no-op until :func:`enable_telemetry` flips
it on (the CLI's ``--telemetry`` flag, the bench harness, or a test).
Telemetry never touches simulation state — the differential suite pins
telemetry-on and telemetry-off runs byte-identical.

Exporters (Prometheus text exposition, JSONL snapshots) live in
:mod:`repro.observability.telemetry.export`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: canonical label form: name-sorted (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram buckets, in seconds (wall-clock oriented)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Instrument:
    """Base of all telemetry instruments; owned by one :class:`Telemetry`."""

    kind = "untyped"

    def __init__(self, owner: "Telemetry", name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._owner = owner
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._owner.enabled

    def series(self) -> Dict[LabelKey, object]:
        """Label-set → value snapshot (shape depends on the kind)."""
        raise NotImplementedError


class CounterMetric(Instrument):
    """A monotonically increasing total, optionally per label set."""

    kind = "counter"

    def __init__(self, owner: "Telemetry", name: str, help: str = "") -> None:
        super().__init__(owner, name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: str) -> None:
        if not self.enabled:
            return
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[LabelKey, object]:
        with self._lock:
            return dict(self._values)


class GaugeMetric(Instrument):
    """A last-write-wins level, optionally per label set."""

    kind = "gauge"

    def __init__(self, owner: "Telemetry", name: str, help: str = "") -> None:
        super().__init__(owner, name, help)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, delta: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(delta)

    def value(self, **labels: str) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> Dict[LabelKey, object]:
        with self._lock:
            return dict(self._values)


class HistogramMetric(Instrument):
    """A bucketed distribution with per-label-set count and sum."""

    kind = "histogram"

    def __init__(
        self,
        owner: "Telemetry",
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(owner, name, help)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels: str) -> None:
        if not self.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * len(self.buckets)
                self._counts[key] = counts
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: str) -> int:
        with self._lock:
            return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels: str) -> float:
        with self._lock:
            return self._sums.get(_label_key(labels), 0.0)

    def total_sum(self) -> float:
        """Sum of observations over every label set."""
        with self._lock:
            return sum(self._sums.values())

    def series(self) -> Dict[LabelKey, object]:
        with self._lock:
            return {
                key: {
                    "count": self._totals.get(key, 0),
                    "sum": self._sums.get(key, 0.0),
                    "buckets": list(self._counts.get(key, [])),
                }
                for key in self._totals
            }


class Telemetry:
    """A named-instrument registry; get-or-create semantics per name."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, Instrument] = {}

    # ---- instrument factories -----------------------------------------
    def _get_or_create(self, cls: type, name: str, help: str,
                       **kwargs: object) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"telemetry instrument {name!r} already registered "
                        f"as a {existing.kind}"
                    )
                return existing
            instrument = cls(self, name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> CounterMetric:
        instrument = self._get_or_create(CounterMetric, name, help)
        assert isinstance(instrument, CounterMetric)
        return instrument

    def gauge(self, name: str, help: str = "") -> GaugeMetric:
        instrument = self._get_or_create(GaugeMetric, name, help)
        assert isinstance(instrument, GaugeMetric)
        return instrument

    def histogram(
        self, name: str, help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> HistogramMetric:
        instrument = self._get_or_create(
            HistogramMetric, name, help, buckets=buckets
        )
        assert isinstance(instrument, HistogramMetric)
        return instrument

    # ---- introspection ------------------------------------------------
    def instruments(self) -> List[Instrument]:
        """Every registered instrument, name-sorted (export order)."""
        with self._lock:
            return [self._instruments[n] for n in sorted(self._instruments)]

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view: name → {kind, help, series} with string labels."""
        result: Dict[str, Dict[str, object]] = {}
        for instrument in self.instruments():
            series = {
                ",".join(f"{k}={v}" for k, v in key) or "": value
                for key, value in sorted(instrument.series().items())
            }
            result[instrument.name] = {
                "kind": instrument.kind,
                "help": instrument.help,
                "series": series,
            }
        return result

    def reset(self) -> None:
        """Drop every instrument (tests and bench phases)."""
        with self._lock:
            self._instruments.clear()


#: the process-global registry: disabled until a surface opts in
_GLOBAL = Telemetry(enabled=False)


def telemetry() -> Telemetry:
    """The process-global telemetry registry."""
    return _GLOBAL


def enable_telemetry(enabled: bool = True) -> Telemetry:
    """Flip the global registry on (or back off); returns it."""
    _GLOBAL.enabled = enabled
    return _GLOBAL


def telemetry_enabled() -> bool:
    return _GLOBAL.enabled
