"""Framework-level lint behaviour: suppressions, driver rules, CLI."""

import json
from pathlib import Path

from repro.analysis.core import SourceFile, Suppression, module_name
from repro.analysis.lint import main, run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _source(text: str) -> SourceFile:
    return SourceFile(Path("mem.py"), "mem.py", text)


def test_module_name_anchors_at_repro():
    assert module_name("src/repro/engine/stats.py") == "repro.engine.stats"
    assert module_name("repro/__init__.py") == "repro"
    assert module_name("exc/repro/engine/cycle.py") == "repro.engine.cycle"
    assert module_name("foo/bar.py") == "foo.bar"


def test_comment_line_suppresses_next_line_trailing_its_own():
    file = _source(
        "# stonne: lint-ok[FLOAT-DICT] exact sum\n"
        "x = 1\n"
        "y = 2  # stonne: lint-ok[EXC-BROAD] trailing case\n"
    )
    (on_two,) = file.suppressions_for(2)
    assert on_two.rule == "FLOAT-DICT"
    assert on_two.reason == "exact sum"
    (on_three,) = file.suppressions_for(3)
    assert on_three.rule == "EXC-BROAD"
    assert not file.suppressions_for(1)


def test_family_prefix_matching():
    suppression = Suppression(
        rule="EXC", reason="r", comment_line=1, target_line=2
    )
    assert suppression.matches("EXC-BROAD")
    assert suppression.matches("EXC")
    assert not suppression.matches("EXCESS-1")
    assert not suppression.matches("FLOAT-DICT")


def test_reasonless_suppression_is_a_finding(tmp_path):
    (tmp_path / "mod.py").write_text(
        "x = 1  # stonne: lint-ok[EXC-TYPE]\n", encoding="utf-8"
    )
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["LINT-REASON"]


def test_unknown_rule_suppression_is_a_finding(tmp_path):
    (tmp_path / "mod.py").write_text(
        "x = 1  # stonne: lint-ok[TOTALLYBOGUS] because\n", encoding="utf-8"
    )
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["LINT-UNKNOWN"]


def test_syntax_error_is_a_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    result = run_lint([tmp_path])
    assert [f.rule for f in result.findings] == ["LINT-SYNTAX"]


def test_driver_rules_cannot_be_suppressed(tmp_path):
    (tmp_path / "mod.py").write_text(
        "# stonne: lint-ok[LINT-REASON] hide the next line\n"
        "x = 1  # stonne: lint-ok[EXC-TYPE]\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path])
    assert "LINT-REASON" in [f.rule for f in result.findings]


def test_select_filters_passes(tmp_path):
    result = run_lint([FIXTURES / "exc"], select=["FLOAT-ORDER"])
    assert result.findings == []
    result = run_lint([FIXTURES / "exc"], select=["EXC"])
    assert result.findings


def test_cli_exit_codes(tmp_path, capsys):
    assert main([str(FIXTURES / "clean")]) == 0
    capsys.readouterr()
    assert main([str(FIXTURES / "exc")]) == 1
    capsys.readouterr()
    assert main([str(tmp_path / "does-not-exist")]) == 2


def test_cli_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        str(FIXTURES / "exc"), "--format", "json", "--output", str(out),
    ])
    assert code == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    printed = json.loads(capsys.readouterr().out)
    assert printed == report
    assert report["schema"] == 2
    assert report["tool"] == "stonne-lint"
    assert report["summary"]["total"] == len(report["findings"])
    for finding in report["findings"]:
        assert set(finding) == {"rule", "path", "line", "message"}
    assert report["summary"]["by_rule"]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("EXC-BROAD", "FLOAT-DICT", "LINT-REASON"):
        assert rule_id in out
