"""Regression: a report's host provenance is read once per process.

Every :class:`~repro.engine.accelerator.Accelerator` stamps its report
with :func:`~repro.observability.provenance.run_metadata`. The Python,
NumPy and platform strings cannot change within a process, yet reading
them cost about a third of an accelerator's construction; only the
timestamp is taken per report.
"""

import platform

import numpy as np

from repro.config import tpu_like
from repro.engine.accelerator import Accelerator
from repro.observability import provenance
from repro.observability.provenance import run_metadata


def test_host_facts_are_the_platform_and_numpy_strings():
    metadata = run_metadata()
    assert metadata["python"] == platform.python_version()
    assert metadata["numpy"] == np.__version__
    assert metadata["platform"] == platform.platform()
    assert "timestamp" in metadata


def test_host_facts_are_read_once_across_many_accelerators(monkeypatch):
    calls = {"platform": 0, "python_version": 0}

    def counted(name):
        real = getattr(platform, name)

        def read():
            calls[name] += 1
            return real()
        return read

    for name in calls:
        monkeypatch.setattr(platform, name, counted(name))
    provenance._host.cache_clear()
    try:
        config = tpu_like(num_pes=16)
        reports = [Accelerator(config).report for _ in range(50)]
    finally:
        provenance._host.cache_clear()
    assert calls == {"platform": 1, "python_version": 1}
    assert {r.metadata["platform"] for r in reports} == {platform.platform()}
    # each report owns its record
    reports[0].metadata["seed"] = 1
    assert "seed" not in reports[1].metadata
