"""The per-accelerator observability context.

One :class:`Observability` object bundles the instruments —
:class:`~repro.observability.tracer.Tracer` (simulated-cycle events),
:class:`~repro.observability.metrics.MetricsRecorder` (counter time
series), the stall and fabric ledgers — and owns the piece of state they
share: the absolute cycle ``base`` of the layer currently executing.
Engine components emit with layer-relative cycles (the only clock they
know); the context translates to the absolute timeline the exporters
use.

The layer window is also where host time is read: :meth:`start_layer`
and :meth:`end_layer` bracket every simulated layer on every path, so
the context keeps one :class:`LayerHostTime` per layer (``--profile``
prints them). This package is the DET-CLOCK-whitelisted one; the
engine, NoC and memory packages never read a wall clock.

The default-constructed context is fully disabled: the null tracer
singleton plus no metrics recorder or ledger, so instrumented code paths
cost one attribute lookup and a branch.
"""

from __future__ import annotations

import time
from typing import (
    Callable, Iterable, List, Mapping, NamedTuple, Optional, Tuple,
)

from repro.noc.base import CounterSet
from repro.observability.metrics import (
    HEADLINE_COUNTERS,
    MetricsRecorder,
    MetricsSample,
)
from repro.observability.fabric import FabricLedger
from repro.observability.stalls import StallLedger
from repro.observability.tracer import NULL_TRACER, NullTracer, Tracer

#: cumulative counter series mirrored into the Chrome trace as counter
#: tracks (kept to the headline signals so traces stay viewer-friendly)
TRACE_COUNTER_SERIES = HEADLINE_COUNTERS

#: one run of identical back-to-back tiles, as :meth:`Observability.
#: sample_runs` takes it: ``(period, count, delta, (span name, span
#: component, span args))``
TileRun = Tuple[int, int, Mapping[str, int], Tuple[str, str, Mapping[str, object]]]


class LayerHostTime(NamedTuple):
    """What one layer of the report cost the host."""

    name: str
    kind: str
    cycles: int
    #: wall seconds of the layer's simulation; ``None`` when nothing was
    #: simulated for it (cache hit, deduplicated shape)
    seconds: Optional[float]
    #: ``simulated`` | ``cached`` | ``deduplicated`` | ``fallback``
    mode: str


class Observability:
    """Tracer + metrics + ledgers wired to one accelerator instance."""

    def __init__(
        self,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRecorder] = None,
        stalls: Optional[StallLedger] = None,
        fabric: Optional[FabricLedger] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        #: stall-attribution ledger; ``None`` keeps every charging site a
        #: single attribute test (attribution is off by default)
        self.stalls = stalls
        #: spatial fabric ledger (per-level DN/MN/RN + FIFO occupancy);
        #: same off-by-default single-attribute-test discipline
        self.fabric = fabric
        #: absolute cycle at which the current layer started
        self.base = 0
        #: one entry per layer, in report order: appended by
        #: :meth:`end_layer`, or by the parallel runner's merge with the
        #: seconds the layer's simulation task reported
        self.host_time: List[LayerHostTime] = []
        self._layer_started = 0.0
        self._snapshot: Optional[Callable[[], CounterSet]] = None
        self._emitted_at_layer_start = 0

    @classmethod
    def create(cls, trace: bool = False, metrics_every: int = 0,
               stalls: bool = False, fabric: bool = False) -> "Observability":
        """Convenience factory from the CLI-flag view of the options."""
        return cls(
            tracer=Tracer() if trace else None,
            metrics=MetricsRecorder(every=metrics_every) if metrics_every else None,
            stalls=StallLedger() if stalls else None,
            fabric=FabricLedger() if fabric else None,
        )

    @property
    def enabled(self) -> bool:
        return (self.tracer.enabled or self.metrics is not None
                or self.stalls is not None or self.fabric is not None)

    # ---- accelerator protocol -----------------------------------------
    def bind(self, snapshot: Callable[[], CounterSet]) -> None:
        """Install the accelerator's merged-counter snapshot provider."""
        self._snapshot = snapshot

    def start_layer(self, base_cycle: int) -> None:
        self.base = base_cycle
        self._layer_started = time.perf_counter()
        if self.metrics is not None:
            self._emitted_at_layer_start = self.metrics.total_emitted
        if self.stalls is not None:
            self.stalls.reset()
        if self.fabric is not None:
            self.fabric.reset()

    def layer_samples(self) -> List[MetricsSample]:
        """Samples emitted since :meth:`start_layer` (ring-bounded)."""
        if self.metrics is None:
            return []
        emitted = self.metrics.total_emitted - self._emitted_at_layer_start
        if emitted <= 0:
            return []
        samples = self.metrics.samples
        return samples[-min(emitted, len(samples)):]

    def sample(self, rel_cycle: int) -> List[MetricsSample]:
        """Observe the counters at ``base + rel_cycle``.

        Called by the engines at phase boundaries; the metrics recorder
        interpolates the cumulative values onto its sampling grid. Newly
        emitted grid samples are mirrored into the trace as counter
        events so ``chrome://tracing`` shows the time series alongside
        the spans.
        """
        if self.metrics is None or self._snapshot is None:
            return []
        new = self.metrics.observe(self.base + rel_cycle, self._snapshot())
        if self.tracer.enabled:
            for sample in new:
                self._mirror(sample)
        return new

    def sample_runs(self, rel_start: int, runs: Iterable[TileRun]) -> None:
        """Place back-to-back tile runs on the timeline before their
        counters are written.

        A run ``(period, count, delta, (name, component, args))`` is
        ``count`` tiles of ``period`` cycles, each adding ``delta`` to
        the counters, starting where the run before it ended (the first
        at ``base + rel_start``). This records what one span and one
        :meth:`sample` per tile would once the caller writes the runs'
        counters — which it must before the next sample — in O(runs +
        samples):

        - the metrics recorder reads the counter file once, for the first
          tile (counters outside the runs may have moved since the last
          sample); every later tile follows from the deltas
          (:meth:`MetricsRecorder.observe_run`);
        - the tracer gets each run's spans as span runs, split where
          samples land, so every mirrored counter event follows the span
          of the tile it samples.
        """
        metrics = self.metrics if self._snapshot is not None else None
        tracer = self.tracer
        first = True
        cycle = self.base + rel_start
        for period, count, delta, (name, component, args) in runs:
            new: List[MetricsSample] = []
            if metrics is not None and count:
                if first:
                    first = False
                    counts = self._snapshot().as_dict()
                    for key, amount in delta.items():
                        counts[key] = counts.get(key, 0) + amount
                    new = metrics.observe(cycle + period, CounterSet(counts))
                    new += metrics.observe_run(
                        cycle + period, period, count - 1, delta
                    )
                else:
                    new = metrics.observe_run(cycle, period, count, delta)
            if tracer.enabled:
                placed = 0
                for sample in new:
                    # the tile the sample lands in (a first-tile sample may
                    # precede the run: it interpolates from the last one)
                    tile = max(1, -(-(sample.cycle - cycle) // period))
                    if tile > placed:
                        tracer.span_run(name, component, cycle + placed * period,
                                        period, tile - placed, **args)
                        placed = tile
                    self._mirror(sample)
                tracer.span_run(name, component, cycle + placed * period,
                                period, count - placed, **args)
            cycle += period * count

    def _mirror(self, sample: MetricsSample) -> None:
        """Mirror one grid sample into the trace as a counter event."""
        values = {
            key: sample.values[key]
            for key in TRACE_COUNTER_SERIES if key in sample.values
        }
        if values:
            self.tracer.counter("activity", "metrics", sample.cycle, values)

    def end_layer(self, rel_end_cycle: int, name: str, kind: str) -> None:
        """Anchor the metrics interpolation at the layer boundary and
        close the layer's host-time window."""
        self.sample(rel_end_cycle)
        self.host_time.append(LayerHostTime(
            name, kind, rel_end_cycle,
            time.perf_counter() - self._layer_started, "simulated",
        ))


#: shared disabled context — the default of every ClockedComponent until
#: an Accelerator attaches its own
DISABLED = Observability()
