"""Mixed-schema registry stores must keep reading after the v3 migration.

The registry never rewrites old rows: a store that predates the stall
(schema 2) and fabric (schema 3) ledgers keeps its v1/v2 records
forever, and every ``insight`` reader must treat the newer per-layer
keys as optional. This suite loads a *committed* fixture database —
one pre-versioning v1 record and one v2 record — appends a fresh v3
run next to them, and pins the reader contract:

- ``list`` / ``show`` / ``diff`` / ``report`` work on every record;
- ``explain`` / ``fabric`` on a record without the ledger exit 2 with an
  actionable re-run hint, never a traceback;
- :attr:`RunRecord.schema` reads 1 for pre-versioning payloads.
"""

import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.observability import Observability
from repro.observability.insight import main as insight_main
from repro.observability.registry import SCHEMA_VERSION, RunRegistry

FIXTURE = Path(__file__).parent / "fixtures" / "registry_v1v2.sql"

V1_RUN = "aaaa1111bbbb"
V2_RUN = "cccc2222dddd"


@pytest.fixture
def mixed_store(tmp_path, rng):
    """A registry dir holding the committed v1+v2 rows plus a live v3 run."""
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    conn = sqlite3.connect(runs_dir / "registry.sqlite3")
    conn.executescript(FIXTURE.read_text(encoding="utf-8"))
    conn.close()

    acc = Accelerator(
        maeri_like(num_ms=16, bandwidth=8),
        observability=Observability.create(stalls=True, fabric=True),
    )
    a = rng.standard_normal((16, 4)).astype(np.float32)
    b = rng.standard_normal((4, 16)).astype(np.float32)
    acc.run_gemm(a, b, name="fresh-gemm")
    with RunRegistry(runs_dir) as registry:
        v3_run = registry.record_report(acc.report, workload="gemm:fresh")
    return runs_dir, v3_run


def test_schema_property_reads_all_generations(mixed_store):
    runs_dir, v3_run = mixed_store
    with RunRegistry(runs_dir) as registry:
        assert registry.get(V1_RUN).schema == 1
        assert registry.get(V2_RUN).schema == 2
        assert registry.get(v3_run).schema == SCHEMA_VERSION == 3
        # v1 predates the per-layer ledgers entirely
        for layer in registry.get(V1_RUN).layers:
            assert "stalls" not in layer and "fabric" not in layer
        for layer in registry.get(V2_RUN).layers:
            assert "stalls" in layer and "fabric" not in layer


def test_list_spans_schemas(mixed_store, capsys):
    runs_dir, _ = mixed_store
    assert insight_main(["--registry-dir", str(runs_dir), "list"]) == 0
    out = capsys.readouterr().out
    assert "gemm:legacy-v1" in out
    assert "gemm:legacy-v2" in out
    assert "gemm:fresh" in out


@pytest.mark.parametrize("command", ["show", "diff"])
@pytest.mark.parametrize("run_id", [V1_RUN, V2_RUN])
def test_readers_accept_legacy_records(mixed_store, capsys, command, run_id):
    runs_dir, _ = mixed_store
    # `diff <run> <run>` walks every layer of the legacy record
    runs = [run_id] * (2 if command == "diff" else 1)
    assert insight_main(
        ["--registry-dir", str(runs_dir), command, *runs]
    ) == 0
    assert capsys.readouterr().out


def test_report_renders_legacy_record_without_new_sections(
    mixed_store, tmp_path, capsys
):
    runs_dir, v3_run = mixed_store
    out = tmp_path / "v1.html"
    assert insight_main([
        "--registry-dir", str(runs_dir), "report", V1_RUN, "-o", str(out),
    ]) == 0
    page = out.read_text(encoding="utf-8")
    assert "gemm:legacy-v1" in page
    assert "Fabric observatory" not in page

    fresh = tmp_path / "v3.html"
    assert insight_main([
        "--registry-dir", str(runs_dir), "report", v3_run, "-o", str(fresh),
    ]) == 0
    assert "Fabric observatory" in fresh.read_text(encoding="utf-8")


@pytest.mark.parametrize("command,flag", [
    ("explain", "--stalls"),
    ("fabric", "--fabric"),
])
def test_ledger_commands_on_v1_are_actionable(mixed_store, capsys, command,
                                              flag):
    runs_dir, _ = mixed_store
    assert insight_main(
        ["--registry-dir", str(runs_dir), command, V1_RUN]
    ) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_v2_record_explains_but_has_no_fabric(mixed_store, capsys):
    runs_dir, _ = mixed_store
    assert insight_main(
        ["--registry-dir", str(runs_dir), "explain", V2_RUN]
    ) == 0
    assert "attributed" in capsys.readouterr().out
    assert insight_main(
        ["--registry-dir", str(runs_dir), "fabric", V2_RUN]
    ) == 2
    assert "--fabric" in capsys.readouterr().err


def test_fresh_v3_record_serves_both_ledgers(mixed_store, capsys):
    runs_dir, v3_run = mixed_store
    assert insight_main(
        ["--registry-dir", str(runs_dir), "explain", v3_run]
    ) == 0
    capsys.readouterr()
    assert insight_main(
        ["--registry-dir", str(runs_dir), "fabric", v3_run]
    ) == 0
    assert "hottest" in capsys.readouterr().out
