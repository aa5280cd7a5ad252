"""Observability: tracing, metrics time-series and per-layer host time.

Coordinated instruments over one simulation:

- :mod:`repro.observability.tracer` — span/instant/counter events on the
  simulated-cycle timeline, exported as Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto) or JSONL;
- :mod:`repro.observability.metrics` — periodic sampling of activity
  counters into a ring-buffered time series (CSV / JSON);
- the per-layer host-time record (:attr:`Observability.host_time`): one
  :class:`LayerHostTime` per layer of the report — host wall seconds and
  how the layer was obtained — read by the layer window on the serial
  path and by the per-task clock under the parallel runner, so
  ``--profile`` prints the same rows on every execution path;

plus :mod:`repro.observability.stalls` (cycle-exact stall attribution:
every simulated cycle of every component classified into a closed
taxonomy under a conservation invariant, surfaced as ``stonne insight
explain``), :mod:`repro.observability.fabric` (the fabric observatory:
spatially-resolved per-level DN/MN/RN utilization, per-link congestion
and tier-boundary FIFO occupancy under an exact consistency invariant,
surfaced as ``stonne insight fabric``), :mod:`repro.observability.
provenance` (run metadata stamped
on every report), :mod:`repro.observability.validate` (trace schema
checking) and :mod:`repro.observability.telemetry` (host-side metrics
facade, sampling hotspot profiler, live progress, Prometheus/JSONL
exporters). :class:`Observability` bundles the instruments for one
accelerator; everything is off by default and near-free when disabled.

Usage::

    from repro import Accelerator, maeri_like
    from repro.observability import Observability

    obs = Observability.create(trace=True, metrics_every=64)
    acc = Accelerator(maeri_like(num_ms=64, bandwidth=16), observability=obs)
    acc.run_gemm(a, b)
    obs.tracer.to_chrome("trace.json")     # load in chrome://tracing
    obs.metrics.to_csv("metrics.csv")
    for row in obs.host_time:              # host seconds per layer
        print(row.name, row.cycles, row.seconds, row.mode)

See ``docs/OBSERVABILITY.md`` for the full workflow.
"""

from repro.observability.context import (
    DISABLED,
    TRACE_COUNTER_SERIES,
    LayerHostTime,
    Observability,
)
from repro.observability.fabric import (
    FABRIC_COUNTERS,
    FABRIC_TIERS,
    FIFO_ANCHORS,
    FabricConsistencyError,
    FabricLedger,
    hottest_links,
    merge_fabric,
    tournament_levels,
    validate_fabric,
)
from repro.observability.metrics import (
    HEADLINE_COUNTERS,
    MetricsRecorder,
    MetricsSample,
    utilization_series,
)
from repro.observability.provenance import config_hash, run_metadata
from repro.observability.registry import (
    RunRecord,
    RunRegistry,
    default_registry_dir,
    registry_enabled,
)
from repro.observability.stalls import (
    STALL_BUCKETS,
    StallConservationError,
    StallLedger,
    classify_bound,
    merge_ledgers,
    validate_ledger,
)
from repro.observability.telemetry import (
    HotspotReport,
    HotspotSampler,
    ProgressEmitter,
    Telemetry,
    enable_telemetry,
    telemetry,
    to_prometheus,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    parse_chrome_trace,
)
from repro.observability.validate import validate_chrome_trace, validate_metrics_json

__all__ = [
    "DISABLED",
    "FABRIC_COUNTERS",
    "FABRIC_TIERS",
    "FIFO_ANCHORS",
    "FabricConsistencyError",
    "FabricLedger",
    "HEADLINE_COUNTERS",
    "HotspotReport",
    "HotspotSampler",
    "LayerHostTime",
    "MetricsRecorder",
    "MetricsSample",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "ProgressEmitter",
    "RunRecord",
    "RunRegistry",
    "STALL_BUCKETS",
    "StallConservationError",
    "StallLedger",
    "TRACE_COUNTER_SERIES",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "classify_bound",
    "config_hash",
    "default_registry_dir",
    "enable_telemetry",
    "hottest_links",
    "merge_fabric",
    "merge_ledgers",
    "parse_chrome_trace",
    "registry_enabled",
    "run_metadata",
    "tournament_levels",
    "validate_fabric",
    "validate_ledger",
    "telemetry",
    "to_prometheus",
    "utilization_series",
    "validate_chrome_trace",
    "validate_metrics_json",
]
