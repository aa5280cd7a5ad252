"""DET pass: RNG, wall-clock, iteration-order and doc-example rules."""

import ast
from pathlib import Path

from repro.analysis.lint import run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def _findings(tree: str):
    result = run_lint([FIXTURES / tree], select=["DET"])
    return result.findings


def test_det_fixture_findings():
    findings = _findings("det")
    by_rule = {}
    for finding in findings:
        by_rule.setdefault(finding.rule, []).append(finding)

    clocks = by_rule["DET-CLOCK"]
    # both the classic time.time() and the monotonic perf_counter() read
    # in the engine fixture are flagged
    assert len(clocks) == 2
    assert all(c.path.endswith("repro/engine/cycle.py") for c in clocks)
    (order,) = by_rule["DET-ORDER"]
    assert order.path.endswith("repro/engine/cycle.py")
    (rand,) = by_rule["DET-RAND"]
    assert rand.path.endswith("repro/tensors.py")
    (doc,) = by_rule["DET-DOC"]
    assert doc.path.endswith("repro/tensors.py")
    assert set(by_rule) == {"DET-CLOCK", "DET-ORDER", "DET-RAND", "DET-DOC"}


def test_observability_is_clock_whitelisted():
    # covers both the parent package fixture (time.time) and the
    # telemetry subpackage fixture (perf_counter/monotonic): neither may
    # need inline suppressions
    findings = _findings("det")
    assert not any("observability" in f.path for f in findings)


def test_wall_clock_outside_cycle_level_is_fine(tmp_path):
    mod = tmp_path / "repro" / "ui" / "widget.py"
    mod.parent.mkdir(parents=True)
    mod.write_text("import time\n\nNOW = time.time()\n", encoding="utf-8")
    result = run_lint([tmp_path], select=["DET"])
    assert result.findings == []


def test_stdlib_random_and_from_imports_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import random\n"
        "from numpy.random import rand\n"
        "\n"
        "def roll():\n"
        "    return random.randint(1, 6)\n",
        encoding="utf-8",
    )
    result = run_lint([tmp_path], select=["DET"])
    rules = sorted(f.rule for f in result.findings)
    assert rules == ["DET-RAND", "DET-RAND"]


def test_seeded_generators_are_clean():
    result = run_lint([FIXTURES / "clean"], select=["DET"])
    assert result.findings == []


def _kernel_path(package, module):
    return (
        Path(__file__).resolve().parents[2] / "src" / "repro" / package / module
    )


def test_vector_engine_package_is_deterministic():
    """The tile-class aggregate must stay free of wall-clock and RNG use:
    it replaces a deterministic schedule and is cache-key relevant."""
    result = run_lint([_kernel_path("engine", "systolic.py")], select=["DET"])
    assert result.findings == []


def test_sparse_controller_is_deterministic_and_builds_no_set():
    """Same bar for the sparse round plan. Its union support is a sorted
    array: the ``set`` the controller once filled per round and read back
    through ``np.fromiter`` (hash order, which DET-ORDER cannot see
    through a call) must not come back."""
    path = _kernel_path("memory", "sparse_controller.py")
    assert run_lint([path], select=["DET"]).findings == []
    offenders = [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Set, ast.SetComp))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))
    ]
    assert offenders == []
