"""PAR-SAFE pass: call-graph reachability from the worker entry points."""

from pathlib import Path

from repro.analysis.lint import run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def test_parsafe_fixture_findings():
    result = run_lint([FIXTURES / "parsafe"], select=["PAR-SAFE"])
    by_rule = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule, []).append(finding)

    (global_write,) = by_rule["PAR-GLOBAL"]
    assert global_write.path.endswith("repro/parallel/runner.py")
    assert "_RESULTS" in global_write.message
    assert "worker" in global_write.message  # witness chain

    registry_hits = by_rule["PAR-REGISTRY"]
    messages = " | ".join(f.message for f in registry_hits)
    assert "instantiates the run registry" in messages
    assert "opens SQLite directly" in messages


def test_unreachable_code_is_not_flagged():
    result = run_lint([FIXTURES / "parsafe"], select=["PAR-SAFE"])
    # parent_only() mutates _RESULTS but is never called from a worker
    assert not any("parent_only" in f.message for f in result.findings)
    assert not any(f.line == 25 for f in result.findings)


def test_tree_without_runner_has_nothing_to_check():
    result = run_lint([FIXTURES / "clean"], select=["PAR-SAFE"])
    assert result.findings == []


def test_global_statement_is_flagged(tmp_path):
    runner = tmp_path / "repro" / "parallel" / "runner.py"
    runner.parent.mkdir(parents=True)
    runner.write_text(
        'WORKER_ENTRY_POINTS = ("work",)\n'
        "_MODE = None\n"
        "\n"
        "def work(item):\n"
        "    global _MODE\n"
        "    _MODE = item\n"
        "    return item\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path], select=["PAR-SAFE"])
    assert [f.rule for f in result.findings] == ["PAR-GLOBAL"]
    assert "_MODE" in result.findings[0].message


def test_global_write_planted_in_accelerator_time_is_flagged(tmp_path):
    """Every timing run — pool task, cache miss, serial fallback — is
    ``_simulate_workload`` -> ``Accelerator.time``; the pass must walk
    that edge on the real tree."""
    import shutil

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    tree = tmp_path / "repro"
    shutil.copytree(src, tree, ignore=shutil.ignore_patterns("__pycache__"))
    accelerator = tree / "engine" / "accelerator.py"
    text = accelerator.read_text(encoding="utf-8")
    marker = "        kind, name = workload.kind, workload.name\n"
    assert text.count(marker) == 1
    accelerator.write_text(
        text.replace(
            marker,
            "        global _LAST_TIMED\n"
            "        _LAST_TIMED = workload.name\n" + marker,
        ),
        encoding="utf-8",
    )
    findings = run_lint([tree], select=["PAR-SAFE"]).findings
    assert [f.rule for f in findings] == ["PAR-GLOBAL"]
    (finding,) = findings
    assert finding.path.endswith("engine/accelerator.py")
    assert "_LAST_TIMED" in finding.message
    # witness chain: worker entry point -> the one timing entry point
    assert "via _simulate_workload -> Accelerator.time" in finding.message
