"""Hotspot profiler: attribution on a synthetic call tree, renderers."""

import ast
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.errors import StonneError
from repro.observability.telemetry.hotspots import (
    HotspotSampler,
    component_of_path,
    profile_call,
)


class _Frame:
    """Duck-typed stack frame: just f_code and f_back."""

    class _Code:
        def __init__(self, filename, name):
            self.co_filename = filename
            self.co_name = name

    def __init__(self, filename, name="fn", back=None):
        self.f_code = self._Code(filename, name)
        self.f_back = back


def test_component_of_path_mapping():
    assert component_of_path("/x/src/repro/engine/systolic.py") == \
        "engine.systolic"
    assert component_of_path("/x/src/repro/noc/distribution.py") == \
        "noc.distribution"
    assert component_of_path("/x/src/repro/noc/reduction.py") == \
        "noc.reduction"
    assert component_of_path("/x/src/repro/memory/dram.py") == "memory.dram"
    assert component_of_path("/x/src/repro/memory/dense_controller.py") == \
        "memory"
    assert component_of_path("/x/src/repro/frontend/models.py") == "frontend"
    assert component_of_path("/x/src/repro/tensors.py") == "tensors"
    assert component_of_path("/usr/lib/python3.11/threading.py") is None
    assert component_of_path(r"C:\x\repro\engine\accelerator.py") == "engine"


def test_attribution_on_synthetic_call_tree():
    """10 hand-built samples with known shares: 6/3/1 split."""
    sampler = HotspotSampler(interval_s=0.001)
    systolic = _Frame("/s/repro/engine/systolic.py", "step")
    # numpy leaf whose caller is the distribution network: the innermost
    # *repro* frame wins, not the raw leaf
    numpy_leaf = _Frame(
        "/usr/lib/numpy/core.py", "dot",
        back=_Frame("/s/repro/noc/distribution.py", "route"),
    )
    stdlib_only = _Frame(
        "/usr/lib/python3.11/json/encoder.py", "encode",
        back=_Frame("/usr/lib/python3.11/json/__init__.py", "dumps"),
    )
    for _ in range(6):
        assert sampler.record(systolic) == "engine.systolic"
    for _ in range(3):
        assert sampler.record(numpy_leaf) == "noc.distribution"
    assert sampler.record(stdlib_only) == "external"

    report = sampler.report()
    assert report.samples == 10
    assert report.shares() == {
        "engine.systolic": 0.6,
        "noc.distribution": 0.3,
        "external": 0.1,
    }
    assert report.attributed_fraction() == pytest.approx(0.9)
    assert report.top_component() == "engine.systolic"
    assert report.top_sites("engine.systolic") == [
        ("engine.systolic:step", 6)
    ]
    assert report.top_sites("noc.distribution") == [
        ("noc.distribution:route", 3)
    ]


def test_idle_sample():
    sampler = HotspotSampler(interval_s=0.001)
    assert sampler.record(None) == "idle"
    assert sampler.record(_Frame("/s/repro/engine/systolic.py", "step")) == \
        "engine.systolic"
    report = sampler.report()
    assert report.components["idle"] == 1
    assert report.attributed_fraction() == pytest.approx(1 / 2)
    assert "idle" not in report.sites


def test_renderers():
    sampler = HotspotSampler(interval_s=0.002)
    for _ in range(3):
        sampler.record(_Frame("/s/repro/engine/systolic.py", "step"))
    sampler.record(_Frame("/usr/lib/python3.11/abc.py", "x"))
    report = sampler.report()

    text = report.to_text()
    assert "engine.systolic" in text
    assert "75.0%" in text
    assert "top component: engine.systolic" in text

    data = report.to_json()
    assert data["samples"] == 4
    assert data["top_component"] == "engine.systolic"
    assert data["shares"]["engine.systolic"] == 0.75
    assert data["wall_s_sampled"] == pytest.approx(4 * 0.002)

    html = report.to_html()
    assert html.startswith("<!doctype html>")
    assert "engine.systolic" in html


def test_empty_report():
    report = HotspotSampler(interval_s=0.001).report()
    assert report.shares() == {}
    assert report.attributed_fraction() == 0.0
    assert report.top_component() is None
    assert "0 samples" in report.to_text()


def test_sampler_lifecycle_and_profile_call():
    with pytest.raises(ValueError):
        HotspotSampler(interval_s=0.0)

    sampler = HotspotSampler(interval_s=0.005)
    sampler.start()
    try:
        with pytest.raises(StonneError):
            sampler.start()
    finally:
        sampler.stop()
    sampler.stop()  # idempotent

    result, report = profile_call(lambda: time.sleep(0.06), interval_s=0.005)
    assert result is None
    assert report.samples >= 1
    assert report.wall_s is not None and report.wall_s >= 0.06
    # sleeping in the stdlib: the only repro frame on the stack is
    # profile_call itself, so nothing outside observability is charged
    assert set(report.components) <= {"observability", "external", "idle"}


def test_sampler_targets_requested_thread():
    ready = threading.Event()
    release = threading.Event()

    def _spin():
        ready.set()
        release.wait(timeout=5.0)

    worker = threading.Thread(target=_spin, daemon=True)
    worker.start()
    ready.wait(timeout=5.0)
    sampler = HotspotSampler(interval_s=0.005, thread_id=worker.ident)
    with sampler:
        time.sleep(0.05)
    release.set()
    worker.join(timeout=5.0)
    assert sampler.samples >= 1


def test_timing_model_imports_no_telemetry():
    """The sampler reads frames: engine, NoC and memory carry no hooks."""
    root = Path(repro.__file__).parent
    offenders = []
    for package in ("engine", "noc", "memory"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    targets = [f"{node.module}.{alias.name}"
                               for alias in node.names]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(root)}:{node.lineno} {target}"
                    for target in targets
                    if target.startswith("repro.observability.telemetry")
                ]
    assert not offenders, offenders
