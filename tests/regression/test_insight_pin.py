"""Output pin for ``stonne insight``.

``insight_pin.json`` is the oracle for the text every ``insight``
reader prints, so the module can lose code without any surviving output
moving. It holds the exact stdout (and exit code) of ``list`` (text and
``--json``), ``show``, ``diff`` (text and ``--json``), ``check`` (a
passing and a regressed baseline), ``export-baseline``, ``explain``
(text, JSON and ``--diff``) and ``fabric`` (text and JSON), plus the
HTML report around its layer views: the page up to the timeline (meta
block) and from the run-level utilization table to the end (the stall,
fabric and regression blocks).

Every output is taken on the same two registry records, with fixed run
ids, timestamps and provenance:

- ``LEDGER_RUN`` — three MAERI GEMMs recorded with the stall and fabric
  lenses on (``--stalls --fabric``);
- ``PLAIN_RUN`` — a TPU conv and GEMM recorded without any ledger.

Regenerate only when an output is meant to change::

    PYTHONPATH=src python tests/regression/test_insight_pin.py
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.config import maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.observability import Observability
from repro.observability.insight import main as insight_main
from repro.observability.registry import RunRecord, RunRegistry

PIN_PATH = Path(__file__).with_name("insight_pin.json")

LEDGER_RUN = "a11ed9e70001"
PLAIN_RUN = "b0091a1n0002"

#: the page slices the report pin covers
REPORT_HEAD_END = "<h2>Timeline</h2>"
REPORT_TAIL_START = "<h2>Run-level utilization</h2>"


def _fixed(record, run_id, created_utc, wall_clock_s):
    """The record with its host- and time-dependent fields pinned."""
    metadata = {
        "tool": "stonne-repro",
        "version": "pin",
        "config_name": record.payload["metadata"]["config_name"],
        "config_hash": record.payload["metadata"]["config_hash"],
    }
    return dataclasses.replace(
        record, run_id=run_id, created_utc=created_utc,
        wall_clock_s=wall_clock_s,
        payload=dict(record.payload, metadata=metadata),
    )


def ledger_record():
    rng = np.random.default_rng(2020)
    acc = Accelerator(
        maeri_like(num_ms=16, bandwidth=4),
        observability=Observability.create(stalls=True, fabric=True),
    )
    for name, (m, k, n) in (("fc1", (8, 32, 4)), ("fc2", (4, 16, 16)),
                            ("proj", (2, 64, 2))):
        acc.run_gemm(rng.standard_normal((m, k)).astype(np.float32),
                     rng.standard_normal((k, n)).astype(np.float32),
                     name=name)
    record = RunRecord.from_report(acc.report, workload="gemm:pin-lenses",
                                   source="cli")
    return _fixed(record, LEDGER_RUN, "2026-01-02T03:04:05+00:00", 0.25)


def plain_record():
    rng = np.random.default_rng(2021)
    acc = Accelerator(tpu_like(num_pes=16))
    acc.run_conv(rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                 rng.standard_normal((1, 3, 6, 6)).astype(np.float32),
                 padding=1, name="conv1")
    acc.run_gemm(rng.standard_normal((6, 12)).astype(np.float32),
                 rng.standard_normal((12, 5)).astype(np.float32),
                 name="head")
    record = RunRecord.from_report(acc.report, workload="model:pin-plain",
                                   source="api")
    return _fixed(record, PLAIN_RUN, "2026-01-02T03:04:06+00:00", None)


def _run(registry_dir, argv):
    """Exit code and stdout of one ``insight`` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = insight_main(["--registry-dir", str(registry_dir), *argv])
    return {"exit": code, "stdout": out.getvalue()}


def _report_slices(page):
    return {
        "head": page[:page.index(REPORT_HEAD_END)],
        "tail": page[page.index(REPORT_TAIL_START):],
    }


def pinned_outputs(workdir):
    """Every pinned output, built in a fresh registry under ``workdir``."""
    workdir = Path(workdir)
    runs = workdir / "runs"
    with RunRegistry(runs) as registry:
        registry.record(ledger_record())
        registry.record(plain_record())

    outputs = {}

    def run(name, *argv):
        outputs[name] = _run(runs, list(argv))

    run("list", "list")
    run("list_json", "list", "--json")
    run("show_ledger", "show", LEDGER_RUN)
    run("show_plain", "show", PLAIN_RUN)
    run("diff", "diff", PLAIN_RUN, LEDGER_RUN)
    run("diff_json", "diff", PLAIN_RUN, LEDGER_RUN, "--json")
    run("diff_same", "diff", LEDGER_RUN, LEDGER_RUN)
    run("export_baseline", "export-baseline", LEDGER_RUN, PLAIN_RUN)

    baseline = workdir / "baseline.json"
    baseline.write_text(outputs["export_baseline"]["stdout"],
                        encoding="utf-8")
    run("check", "check", "--baseline", str(baseline))
    regressed = json.loads(baseline.read_text(encoding="utf-8"))
    regressed["baselines"][1]["total_cycles"] += 7
    regressed_path = workdir / "regressed.json"
    regressed_path.write_text(json.dumps(regressed), encoding="utf-8")
    run("check_regressed", "check", "--baseline", str(regressed_path))

    run("explain", "explain", LEDGER_RUN)
    run("explain_json", "explain", LEDGER_RUN, "--format", "json")
    run("explain_diff", "explain", "--diff", LEDGER_RUN, LEDGER_RUN)
    run("explain_plain", "explain", PLAIN_RUN)
    run("fabric", "fabric", LEDGER_RUN)
    run("fabric_json", "fabric", LEDGER_RUN, "--format", "json")
    run("fabric_plain", "fabric", PLAIN_RUN)

    for run_id, name in ((LEDGER_RUN, "report_ledger"),
                         (PLAIN_RUN, "report_plain")):
        page = workdir / f"{run_id}.html"
        result = _run(runs, ["report", run_id, "-o", str(page),
                             "--baseline", str(regressed_path)])
        assert result["exit"] == 0, result
        outputs[name] = _report_slices(page.read_text(encoding="utf-8"))
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return pinned_outputs(tmp_path_factory.mktemp("insight-pin"))


@pytest.fixture(scope="module")
def pin():
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))


def test_pin_covers_every_output(outputs, pin):
    assert sorted(outputs) == sorted(pin)


@pytest.mark.parametrize("name", sorted(
    json.loads(PIN_PATH.read_text(encoding="utf-8"))
    if PIN_PATH.exists() else ()
))
def test_output_matches_pin(outputs, pin, name):
    assert outputs[name] == pin[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        generated = pinned_outputs(scratch)
    PIN_PATH.write_text(json.dumps(generated, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(generated)} outputs to {PIN_PATH}")
