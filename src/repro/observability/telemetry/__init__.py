"""Host-side telemetry: metrics facade, hotspot profiler, live progress.

The cycle-level instruments in :mod:`repro.observability` watch the
*simulated machine*; this package watches the *simulator host* — where
wall-clock goes (``hotspots``), how the cache and the model runner's
stages behave (``facade`` instruments), how far a run has progressed (``progress``),
and how to get it all out (``export``). All of it is opt-in and proven
arithmetically neutral by the differential suite.
"""

from repro.observability.telemetry.facade import (
    DEFAULT_BUCKETS,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    Telemetry,
    enable_telemetry,
    telemetry,
    telemetry_enabled,
)
from repro.observability.telemetry.hotspots import (
    HotspotReport,
    HotspotSampler,
    component_of_path,
    profile_call,
)
from repro.observability.telemetry.progress import EtaEstimator, ProgressEmitter
from repro.observability.telemetry.export import (
    to_prometheus,
    write_snapshot,
    write_telemetry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "Telemetry",
    "enable_telemetry",
    "telemetry",
    "telemetry_enabled",
    "HotspotReport",
    "HotspotSampler",
    "component_of_path",
    "profile_call",
    "EtaEstimator",
    "ProgressEmitter",
    "to_prometheus",
    "write_snapshot",
    "write_telemetry",
]
