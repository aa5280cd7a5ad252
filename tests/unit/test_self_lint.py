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
    assert set(result.passes) == {"EXC", "FLOAT-ORDER"}


def test_known_suppressions_carry_reasons():
    result = run_lint([SRC])
    # the tree silences no finding: every handler is typed and every
    # float sum in the timing packages is order-independent
    assert result.suppressed == []


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
    assert report["summary"]["suppressed"] == 0
    json.dumps(report)  # must be JSON-serializable as-is
