"""Metrics time-series: periodic sampling of activity-counter deltas.

End-of-run aggregates cannot show *when* the Global Buffer saturated or
the reduction network idled. :class:`MetricsRecorder` turns the
cumulative :class:`~repro.noc.base.CounterSet` values the components
already maintain into a time series: a sample every ``every`` cycles,
held in a bounded ring buffer.

Because the engines fast-forward through steady phases, counters do not
advance one cycle at a time — the recorder is fed *observations* at
phase boundaries (:meth:`observe` with the absolute cycle and the
current cumulative counters) and linearly interpolates the cumulative
values onto the sampling grid. Within one steady phase the per-cycle
activity really is uniform (that is what makes fast-forwarding exact),
so the interpolation reconstructs precisely what per-cycle sampling
would have recorded, phase boundaries excepted by less than one step.
A run of identical phases — ``count`` systolic tiles of one shape — is
one :meth:`MetricsRecorder.observe_run`: the samples of ``count``
observations, written in closed form.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Union

from repro.errors import ConfigurationError, SimulationError
from repro.noc.base import CounterSet

#: the headline activity signals: mirrored into Chrome traces as counter
#: tracks and used as the default column set of :meth:`MetricsRecorder.summary`
#: so empty runs still report a stable, zeroed schema
HEADLINE_COUNTERS = (
    "gb_reads",
    "gb_writes",
    "mn_multiplications",
    "dn_elements_sent",
    "rn_outputs_written",
    "dram_bytes_read",
    "dram_bytes_written",
)


@dataclass(frozen=True)
class MetricsSample:
    """Cumulative counter values interpolated at one grid cycle."""

    cycle: int
    values: Mapping[str, float]


class MetricsRecorder:
    """Ring-buffered time series of counter samples every N cycles."""

    def __init__(self, every: int = 64, capacity: int = 65536) -> None:
        try:
            every, capacity = operator.index(every), operator.index(capacity)
        except TypeError:
            raise ConfigurationError(
                f"metrics cadence and ring capacity must be integers, got "
                f"every={every!r}, capacity={capacity!r}"
            ) from None
        if every < 1:
            raise ConfigurationError(
                f"sampling cadence must be >= 1 cycle, got every={every}"
            )
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got capacity={capacity}"
            )
        self.every = every
        self.capacity = capacity
        self._ring: Deque[MetricsSample] = deque(maxlen=capacity)
        self.dropped = 0
        #: monotonically increasing count of samples ever emitted
        self.total_emitted = 0
        self._last_cycle = 0
        self._last_values: Dict[str, float] = {}

    # ---- ingestion ----------------------------------------------------
    def observe(self, cycle: int, counters: Union[CounterSet, Mapping[str, float]],
                ) -> List[MetricsSample]:
        """Feed one observation; returns the newly emitted grid samples.

        ``cycle`` is the absolute accelerator clock and must not move
        backwards; ``counters`` are the *cumulative* values at that
        cycle. Every multiple of ``every`` inside ``(previous, cycle]``
        yields one sample with values linearly interpolated between the
        two observations.
        """
        if cycle < self._last_cycle:
            raise SimulationError(
                f"observation cycle went backwards ({cycle} < {self._last_cycle})"
            )
        values = dict(counters.as_dict()) if isinstance(counters, CounterSet) \
            else {k: float(v) for k, v in counters.items()}
        new: List[MetricsSample] = []
        span = cycle - self._last_cycle
        first_grid = (self._last_cycle // self.every + 1) * self.every
        for grid in range(first_grid, cycle + 1, self.every):
            frac = (grid - self._last_cycle) / span if span else 1.0
            keys = self._last_values.keys() | values.keys()
            point = {
                key: self._last_values.get(key, 0.0)
                + frac * (values.get(key, 0.0) - self._last_values.get(key, 0.0))
                for key in sorted(keys)
            }
            new.append(self._emit(MetricsSample(cycle=grid, values=point)))
        self._last_cycle = cycle
        self._last_values = values
        return new

    def observe_run(self, start: int, period: int, count: int,
                    delta: Mapping[str, float]) -> List[MetricsSample]:
        """Feed ``count`` uniform observations; returns the new samples.

        A run is ``count`` back-to-back phases of ``period`` cycles, the
        first starting at ``start``, each adding ``delta`` to the
        cumulative values: what ``count`` :meth:`observe` calls at
        ``start + i * period`` would record (for integer-valued counters,
        which :class:`CounterSet` holds), at a cost of O(samples) — not
        O(count). Only the first phase is a general observation: it
        interpolates from the previous one, which may lie before
        ``start`` and lack keys ``delta`` has. Every later phase spans
        exactly ``period`` cycles from the values of the one before.
        """
        if period < 1 or count < 0:
            raise SimulationError(
                f"an observation run needs period >= 1 and count >= 0, "
                f"got period={period!r}, count={count!r}"
            )
        if not count:
            return []
        first_end = start + period
        if first_end < self._last_cycle:
            raise SimulationError(
                f"observation cycle went backwards "
                f"({first_end} < {self._last_cycle})"
            )
        last = self._last_values
        keys = sorted(last.keys() | delta.keys())
        base = [last.get(key, 0) for key in keys]
        step = [delta.get(key, 0) for key in keys]
        end = start + period * count
        new: List[MetricsSample] = []
        # ``phase`` phases have ended before the grid cycle; the one it
        # falls in runs from (lo_cycle, lo) over ``span`` cycles and rises
        # by ``step`` — exactly ``values - last``, the values being integers
        phase = -1
        lo_cycle = span = 0
        lo: List[float] = []
        first_grid = (self._last_cycle // self.every + 1) * self.every
        for grid in range(first_grid, end + 1, self.every):
            at = 0 if grid <= first_end else (grid - start - 1) // period
            if at != phase:
                phase = at
                lo_cycle = self._last_cycle if at == 0 else start + at * period
                span = start + (at + 1) * period - lo_cycle
                lo = [b + at * d for b, d in zip(base, step)]
            frac = (grid - lo_cycle) / span if span else 1.0
            point = dict(zip(keys, [
                low + frac * d for low, d in zip(lo, step)
            ]))
            new.append(self._emit(MetricsSample(cycle=grid, values=point)))
        self._last_cycle = end
        self._last_values = {
            key: b + count * d for key, b, d in zip(keys, base, step)
        }
        return new

    def _emit(self, sample: MetricsSample) -> MetricsSample:
        """Append one sample to the ring, counting what it pushes out."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(sample)
        self.total_emitted += 1
        return sample

    def ingest(
        self,
        samples: List[MetricsSample],
        cycle_offset: int = 0,
        value_offsets: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Append samples recorded by another recorder (one layer's own).

        Such samples carry layer-local cycles and per-layer cumulative
        counter values; ``cycle_offset`` rebases them onto the parent's
        absolute timeline and ``value_offsets`` adds the counters
        accumulated by every earlier layer, so the merged series reads
        like one continuous run. Samples must arrive in timeline order.
        """
        offsets = dict(value_offsets or {})
        for sample in samples:
            cycle = sample.cycle + int(cycle_offset)
            if cycle < self._last_cycle:
                raise SimulationError(
                    f"ingested cycle went backwards ({cycle} < {self._last_cycle})"
                )
            keys = set(offsets) | set(sample.values)
            values = {
                key: offsets.get(key, 0.0) + float(sample.values.get(key, 0.0))
                for key in sorted(keys)
            }
            self._emit(MetricsSample(cycle=cycle, values=values))
            self._last_cycle = cycle
            self._last_values = dict(values)

    # ---- access -------------------------------------------------------
    @property
    def samples(self) -> List[MetricsSample]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def deltas(self) -> List[MetricsSample]:
        """Per-interval activity: consecutive-sample differences.

        The derivative view ("GB reads during this window") that
        utilization-over-time plots want, as opposed to the cumulative
        values :attr:`samples` holds.
        """
        result: List[MetricsSample] = []
        previous: Optional[MetricsSample] = None
        for sample in self._ring:
            if previous is not None:
                keys = previous.values.keys() | sample.values.keys()
                result.append(MetricsSample(
                    cycle=sample.cycle,
                    values={
                        key: sample.values.get(key, 0.0) - previous.values.get(key, 0.0)
                        for key in sorted(keys)
                    },
                ))
            previous = sample
        return result

    def columns(self) -> List[str]:
        keys: set = set()
        for sample in self._ring:
            keys.update(sample.values)
        return sorted(keys)

    # ---- exporters ----------------------------------------------------
    def to_csv(self, path: Optional[Union[str, Path]] = None,
               cumulative: bool = False) -> str:
        """CSV with one row per sample (per-interval deltas by default)."""
        columns = self.columns()
        rows = ["cycle," + ",".join(columns)]
        series = self.samples if cumulative else self.deltas()
        for sample in series:
            cells = [str(sample.cycle)]
            for column in columns:
                value = sample.values.get(column, 0.0)
                cells.append(f"{value:g}")
            rows.append(",".join(cells))
        text = "\n".join(rows) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        payload = {
            "every": self.every,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [
                {"cycle": s.cycle, "values": dict(s.values)} for s in self._ring
            ],
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def summary(self, columns: Optional[List[str]] = None) -> Dict[str, float]:
        """Headline numbers for report attachment.

        Always includes ``samples`` (``0.0`` on an empty ring) and one
        entry per counter column — the last cumulative value, or ``0.0``
        when nothing was recorded — so downstream consumers (the run
        registry, CSV tooling) see a stable schema instead of having to
        special-case empty runs.
        """
        if columns is None:
            columns = self.columns() or list(HEADLINE_COUNTERS)
        last = self._ring[-1].values if self._ring else {}
        result = {
            "every": float(self.every),
            "samples": float(len(self._ring)),
            "dropped": float(self.dropped),
        }
        for column in columns:
            result[column] = float(last.get(column, 0.0))
        return result


def utilization_series(recorder: MetricsRecorder, num_ms: int) -> List[Dict[str, float]]:
    """Multiplier-utilization-over-time derived from the recorded deltas."""
    if num_ms < 1:
        raise ConfigurationError(f"num_ms must be >= 1, got num_ms={num_ms!r}")
    rows: List[Dict[str, float]] = []
    for delta in recorder.deltas():
        mults = delta.values.get("mn_multiplications", 0.0)
        window = recorder.every
        rows.append({
            "cycle": float(delta.cycle),
            "utilization": min(1.0, mults / (num_ms * window)) if window else 0.0,
        })
    return rows
