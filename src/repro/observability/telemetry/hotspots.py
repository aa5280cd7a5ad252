"""Sampling hotspot profiler: host wall-clock per simulator component.

``stonne insight explain`` answers "which component costs the most
*simulated cycles*"; this module answers the ROADMAP-item-1 question —
"which component costs the most *host seconds* to simulate". A daemon
thread samples the target thread's stack via ``sys._current_frames()``
at a fixed interval and attributes each sample to a component:

1. an explicit :func:`~repro.observability.telemetry.scopes.component_scope`
   pushed by the sampled thread wins, else
2. the innermost stack frame whose filename lives under ``repro/`` maps
   through :func:`component_of_path` (``repro/engine/systolic.py`` →
   ``engine.systolic``, ``repro/noc/distribution.py`` →
   ``noc.distribution``, …), else
3. the sample is ``external`` (interpreter/numpy/stdlib with no repro
   frame) or ``idle`` (thread gone).

Samples also keep a per-``module:function`` breakdown so a report can
show the top call sites inside the winning component. The profiler is
read-only with respect to the simulation: it never touches payloads,
so telemetry-on and -off runs stay byte-identical.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StonneError

#: (subpackage, module-stem) pairs that get a refined component name;
#: any other ``repro/<sub>/...`` frame attributes to its subpackage
_REFINED: Dict[Tuple[str, str], str] = {
    ("engine", "systolic"): "engine.systolic",
    ("noc", "distribution"): "noc.distribution",
    ("noc", "reduction"): "noc.reduction",
    ("memory", "dram"): "memory.dram",
}

#: attribution sinks that do not count as "named components"
UNATTRIBUTED = ("external", "idle")


def component_of_path(filename: str) -> Optional[str]:
    """Map a frame filename to a component name, or ``None``.

    ``.../repro/<sub>/<mod>.py`` → a refined name when (sub, mod) is in
    ``_REFINED``, else ``<sub>``; ``.../repro/<mod>.py`` → ``<mod>``.
    Paths outside a ``repro`` package return ``None``.
    """
    normalized = filename.replace("\\", "/")
    parts = normalized.split("/")
    try:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    tail = parts[anchor + 1:]
    if not tail:
        return None
    if len(tail) == 1:
        stem = tail[0]
        return stem[:-3] if stem.endswith(".py") else stem
    sub = tail[0]
    stem = tail[1][:-3] if tail[1].endswith(".py") else tail[1]
    return _REFINED.get((sub, stem), sub)


def _frame_site(frame: Any) -> str:
    code = frame.f_code
    component = component_of_path(code.co_filename)
    module = component if component is not None else "external"
    return f"{module}:{code.co_name}"


class HotspotReport:
    """Aggregated sample counts with share math and renderers."""

    def __init__(
        self,
        samples: int,
        components: Dict[str, int],
        sites: Dict[str, Dict[str, int]],
        interval_s: float,
    ) -> None:
        self.samples = samples
        self.components = dict(components)
        self.sites = {k: dict(v) for k, v in sites.items()}
        self.interval_s = interval_s
        #: true wall seconds of the profiled call, when the caller knows it
        self.wall_s: Optional[float] = None

    # ---- derived views ------------------------------------------------
    def shares(self) -> Dict[str, float]:
        """Component → fraction of all samples (sorted descending)."""
        if self.samples == 0:
            return {}
        items = sorted(
            self.components.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return {name: count / self.samples for name, count in items}

    def attributed_fraction(self) -> float:
        """Fraction of samples landing on a named component."""
        if self.samples == 0:
            return 0.0
        named = sum(
            count for name, count in self.components.items()
            if name not in UNATTRIBUTED
        )
        return named / self.samples

    def top_component(self) -> Optional[str]:
        named = {
            name: count for name, count in self.components.items()
            if name not in UNATTRIBUTED
        }
        if not named:
            return None
        return min(named, key=lambda name: (-named[name], name))

    def top_sites(self, component: str, limit: int = 5) -> List[Tuple[str, int]]:
        sites = self.sites.get(component, {})
        ordered = sorted(sites.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[:limit]

    # ---- renderers ----------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        return {
            "samples": self.samples,
            "interval_s": self.interval_s,
            "wall_s": self.wall_s,
            "wall_s_sampled": self.samples * self.interval_s,
            "attributed_fraction": self.attributed_fraction(),
            "top_component": self.top_component(),
            "shares": self.shares(),
            "components": dict(
                sorted(self.components.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
            "sites": {
                component: dict(
                    sorted(sites.items(), key=lambda kv: (-kv[1], kv[0]))
                )
                for component, sites in sorted(self.sites.items())
            },
        }

    def to_text(self) -> str:
        lines = [
            "host wall-clock hotspots "
            f"({self.samples} samples @ {self.interval_s * 1000:.1f} ms, "
            f"{self.attributed_fraction() * 100:.1f}% attributed)",
        ]
        for name, share in self.shares().items():
            count = self.components[name]
            lines.append(f"  {name:<20s} {share * 100:6.1f}%  ({count} samples)")
            if name not in UNATTRIBUTED:
                for site, hits in self.top_sites(name, limit=3):
                    lines.append(f"      {site:<30s} {hits}")
        top = self.top_component()
        if top is not None:
            lines.append(f"top component: {top}")
        return "\n".join(lines)

    def to_html(self) -> str:
        rows = []
        for name, share in self.shares().items():
            width = max(1, int(round(share * 300)))
            rows.append(
                "<tr><td>{name}</td><td>{pct:.1f}%</td>"
                "<td><div class='bar' style='width:{w}px'></div></td>"
                "<td>{count}</td></tr>".format(
                    name=name, pct=share * 100, w=width,
                    count=self.components[name],
                )
            )
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True)
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            "<title>stonne hotspots</title><style>"
            "body{font-family:monospace;margin:2em}"
            "table{border-collapse:collapse}"
            "td{padding:2px 12px;border-bottom:1px solid #ddd}"
            ".bar{background:#4a78c0;height:12px}"
            "</style></head><body>"
            f"<h1>Host wall-clock hotspots</h1>"
            f"<p>{self.samples} samples @ {self.interval_s * 1000:.1f} ms, "
            f"{self.attributed_fraction() * 100:.1f}% attributed to named "
            "components.</p>"
            "<table><tr><th>component</th><th>share</th><th></th>"
            f"<th>samples</th></tr>{''.join(rows)}</table>"
            f"<h2>Raw data</h2><pre>{payload}</pre>"
            "</body></html>"
        )


class HotspotSampler:
    """Samples one thread's stack on a daemon thread.

    Use as a context manager around the work to profile::

        with HotspotSampler(interval_s=0.002) as sampler:
            run_model(...)
        report = sampler.report()

    ``record(frame)`` is the attribution core and is separable for
    tests: synthetic duck-typed frames (``f_code.co_filename``,
    ``f_back``) exercise the mapping without any threading.
    """

    def __init__(
        self,
        interval_s: float = 0.002,
        thread_id: Optional[int] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval_s = interval_s
        self.thread_id = (
            thread_id if thread_id is not None else threading.get_ident()
        )
        self.samples = 0
        self.components: Dict[str, int] = {}
        self.sites: Dict[str, Dict[str, int]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ---- attribution core ---------------------------------------------
    def record(self, frame: Any) -> str:
        """Attribute one sampled stack; returns the component charged."""
        from repro.observability.telemetry.scopes import current_component

        self.samples += 1
        component: Optional[str] = None
        if frame is None:
            component = "idle"
        else:
            component = current_component(self.thread_id)
        site: Optional[str] = None
        if component is None or component not in UNATTRIBUTED:
            walker = frame
            while walker is not None:
                mapped = component_of_path(walker.f_code.co_filename)
                if mapped is not None:
                    if component is None:
                        component = mapped
                    site = _frame_site(walker)
                    break
                walker = walker.f_back
        if component is None:
            component = "external"
        self.components[component] = self.components.get(component, 0) + 1
        if site is not None and component not in UNATTRIBUTED:
            bucket = self.sites.setdefault(component, {})
            bucket[site] = bucket.get(site, 0) + 1
        return component

    # ---- lifecycle ----------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self.thread_id)
            self.record(frame)

    def start(self) -> "HotspotSampler":
        if self._thread is not None:
            raise StonneError("hotspot sampler already started")
        from repro.observability.telemetry.scopes import activate_scopes

        activate_scopes(True)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="stonne-hotspot-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        from repro.observability.telemetry.scopes import activate_scopes

        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        activate_scopes(False)

    def __enter__(self) -> "HotspotSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def report(self) -> HotspotReport:
        return HotspotReport(
            self.samples, self.components, self.sites, self.interval_s
        )


def profile_call(
    fn: Any, interval_s: float = 0.002
) -> Tuple[Any, HotspotReport]:
    """Run ``fn()`` under a sampler; returns ``(result, report)``."""
    sampler = HotspotSampler(interval_s=interval_s)
    start = time.perf_counter()
    with sampler:
        result = fn()
    elapsed = time.perf_counter() - start
    report = sampler.report()
    report.wall_s = elapsed
    return result, report
