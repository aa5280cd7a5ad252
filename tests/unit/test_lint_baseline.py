"""Ratchet mode (--baseline) and stale-suppression hygiene."""

import json
from pathlib import Path

from repro.analysis.lint import main, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _baseline_from(tmp_path, *lint_args):
    """Produce an --output report to ratchet against."""
    out = tmp_path / "baseline.json"
    main([*lint_args, "--format", "json", "--output", str(out)])
    return out


def test_ratchet_passes_when_nothing_new(tmp_path, capsys):
    baseline = _baseline_from(tmp_path, str(FIXTURES / "exc"))
    capsys.readouterr()
    code = main([str(FIXTURES / "exc"), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "0 new" in out


def test_ratchet_fails_only_on_new_findings(tmp_path, capsys):
    baseline = _baseline_from(tmp_path, str(FIXTURES / "exc"))
    capsys.readouterr()
    # same tree plus a fresh violation the baseline has never seen
    tree = tmp_path / "tree"
    package = tree / "repro"
    package.mkdir(parents=True)
    src = FIXTURES / "exc" / "repro" / "handlers.py"
    (package / "handlers.py").write_text(
        src.read_text(encoding="utf-8"), encoding="utf-8"
    )
    (package / "fresh.py").write_text(
        "def tick():\n    raise RuntimeError('fresh')\n",
        encoding="utf-8",
    )
    code = main([str(tree), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NEW" in out
    assert "fresh.py" in out


def test_ratchet_reports_fixed_counts(tmp_path, capsys):
    baseline = _baseline_from(tmp_path, str(FIXTURES / "exc"))
    capsys.readouterr()
    code = main([str(FIXTURES / "clean"), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new" in out
    report = json.loads(baseline.read_text(encoding="utf-8"))
    assert f"{len(report['findings'])} fixed" in out


def test_baseline_block_lands_in_the_json_report(tmp_path, capsys):
    baseline = _baseline_from(tmp_path, str(FIXTURES / "exc"))
    out_path = tmp_path / "next.json"
    capsys.readouterr()
    main([
        str(FIXTURES / "exc"), "--baseline", str(baseline),
        "--format", "json", "--output", str(out_path),
    ])
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["baseline"]["new"] == []
    assert report["baseline"]["baseline_total"] > 0
    assert report["baseline"]["path"] == str(baseline)


def test_missing_or_unreadable_baseline_is_a_usage_error(tmp_path, capsys):
    assert main([
        str(FIXTURES / "clean"), "--baseline", str(tmp_path / "nope.json"),
    ]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    assert main([str(FIXTURES / "clean"), "--baseline", str(bad)]) == 2


def test_stale_suppression_is_a_finding(tmp_path):
    (tmp_path / "mod.py").write_text(
        "x = 1  # stonne: lint-ok[EXC-TYPE] nothing here anymore\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path])
    (finding,) = result.findings
    assert finding.rule == "LINT-UNUSED"
    assert "matches no finding" in finding.message


def test_used_suppression_is_not_stale(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def tick():\n"
        "    raise RuntimeError('x')"
        "  # stonne: lint-ok[EXC-TYPE] test fixture\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == []
    assert len(result.suppressed) == 1


def test_stale_suppressions_are_not_judged_under_select(tmp_path):
    # under --select the unselected passes never ran, so their
    # suppressions legitimately match nothing
    (tmp_path / "mod.py").write_text(
        "x = 1  # stonne: lint-ok[EXC-TYPE] out of scope today\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path], select=["FLOAT-ORDER"])
    assert result.findings == []
