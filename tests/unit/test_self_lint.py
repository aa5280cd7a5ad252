"""The package must pass its own linter — the tentpole acceptance check."""

import json
from pathlib import Path

from repro.analysis.lint import REPORT_SCHEMA_VERSION, run_lint

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_src_repro_lints_clean():
    result = run_lint([SRC])
    assert [
        f"{f.location()}: {f.rule} {f.message}" for f in result.findings
    ] == []
    assert result.files > 50  # the whole package was actually scanned
    # the passes with a seeded mutant no runtime test catches
    # (tests/oracles/mutants.py; docs/STATIC_ANALYSIS.md has the table)
    assert set(result.passes) == {"EXC", "FLOAT-ORDER", "PAR-SAFE"}


def test_known_suppressions_carry_reasons():
    result = run_lint([SRC])
    # the intentionally suppressed findings in the tree: the
    # worker-fallback handlers in parallel/runner.py (submit, result and
    # the per-layer catch inside a chunk), and the writes of
    # the sparse controller's schedule memo (one helper; a hit returns
    # what the miss computed)
    assert sorted((f.rule, f.path.split("repro/")[-1]) for f in result.suppressed) == (
        [("EXC-BROAD", "parallel/runner.py")] * 3
        + [("PAR-GLOBAL", "memory/sparse_controller.py")] * 5
    )


def test_report_schema():
    result = run_lint([SRC])
    report = result.as_dict()
    assert report["schema"] == REPORT_SCHEMA_VERSION
    assert report["tool"] == "stonne-lint"
    assert set(report) == {
        "schema", "tool", "passes", "files", "findings", "suppressed",
        "summary",
    }
    assert report["summary"]["total"] == 0
    assert report["summary"]["suppressed"] == 8
    json.dumps(report)  # must be JSON-serializable as-is
