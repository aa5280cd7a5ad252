"""Insight: regression sentinel, HTML report, CLI."""

import json

import numpy as np
import pytest

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.observability.insight import (
    Thresholds,
    check_baseline,
    diff_records,
    export_baseline,
    load_baseline,
    render_html,
)
from repro.observability.insight import main as insight_main
from repro.observability.registry import RunRecord, RunRegistry


def _report(rng, name="ins-gemm"):
    acc = Accelerator(maeri_like(32, 8))
    a = rng.standard_normal((8, 16)).astype(np.float32)
    b = rng.standard_normal((16, 4)).astype(np.float32)
    acc.run_gemm(a, b, name=name)
    return acc.report


def _record(rng, workload="gemm:ins", name="ins-gemm"):
    return RunRecord.from_report(_report(rng, name=name), workload=workload)


# ---- diff / sentinel -------------------------------------------------
def test_diff_identical_runs_zero_delta(rng):
    a, b = _record(rng), _record(rng)
    result = diff_records(a, b)
    assert result["ok"]
    assert result["config_match"]
    assert result["deltas"]["cycles"]["pct"] == 0.0
    assert result["layer_deltas"] == []


def test_diff_perturbed_run_flags_violation(rng):
    a = _record(rng)
    perturbed = dict(a.payload)
    perturbed["layers"] = [dict(a.layers[0], cycles=a.total_cycles + 50)]
    b = RunRecord(
        run_id="b" * 12, created_utc=a.created_utc, workload=a.workload,
        source=a.source, config_name=a.config_name, config_hash=a.config_hash,
        total_cycles=a.total_cycles + 50, total_macs=a.total_macs,
        energy_total_uj=a.energy_total_uj, wall_clock_s=None, cached=False,
        payload=perturbed,
    )
    result = diff_records(a, b, Thresholds(cycles_pct=0.0))
    assert not result["ok"]
    assert any("cycles" in v for v in result["violations"])
    assert result["layer_deltas"][0]["status"] == "changed"
    # a loose threshold tolerates the same delta
    loose = diff_records(a, b, Thresholds(cycles_pct=99.0, energy_pct=None))
    assert loose["ok"]


def test_diff_layer_count_change_is_violation(rng):
    a = _record(rng)
    shrunk = dict(a.payload, layers=[])
    b = RunRecord(**{**a.__dict__, "run_id": "c" * 12, "payload": shrunk})
    assert not diff_records(a, b)["ok"]


def test_check_baseline_pass_and_regress(rng, tmp_path):
    with RunRegistry(tmp_path) as registry:
        record = registry.get(registry.record_report(
            _report(rng), workload="gemm:ins"
        ))
        baseline = export_baseline([record])
        results, ok = check_baseline(registry, baseline)
        assert ok and results[0]["status"] == "ok"

        # a baseline demanding different cycles regresses
        baseline["baselines"][0]["total_cycles"] += 10
        results, ok = check_baseline(registry, baseline)
        assert not ok and results[0]["status"] == "regressed"

        # a baseline entry with no matching run fails loudly
        baseline["baselines"][0]["config_hash"] = "0" * 16
        results, ok = check_baseline(registry, baseline)
        assert not ok and results[0]["status"] == "missing"


def test_load_baseline_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)
    path.write_text(json.dumps({"schema": 99, "baselines": []}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)
    path.write_text(json.dumps({"schema": 1, "baselines": [{}]}),
                    encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(path)


# ---- HTML report -----------------------------------------------------
def test_render_html_is_self_contained(rng):
    record = _record(rng)
    text = render_html(record, top=5)
    assert text.startswith("<!doctype html>")
    assert "<script" not in text
    assert "http://" not in text and "https://" not in text
    assert "<svg" in text
    assert record.run_id in text
    assert "ins-gemm" in text


def test_render_html_escapes_layer_names(rng):
    record = _record(rng, name="<evil & 'layer'>")
    text = render_html(record)
    assert "<evil" not in text
    assert "&lt;evil" in text


def test_render_html_parses(rng):
    from html.parser import HTMLParser

    class Strict(HTMLParser):
        def error(self, message):  # pragma: no cover - only on bad HTML
            raise AssertionError(message)

    Strict().feed(render_html(_record(rng)))


def test_render_html_without_ledgers_makes_no_bound_claim(rng):
    page = render_html(_record(rng))
    assert "-bound" not in page
    for heuristic in ("distribution", "underutilized", "heatmap", "DRAM"):
        assert heuristic not in page
    assert "record the run with --stalls" in page
    # the ranking table keeps layer / kind / cycles / share only
    assert ("<th>layer</th><th>kind</th><th>cycles</th><th>share</th>"
            "</tr></thead>") in page


# ---- CLI -------------------------------------------------------------
@pytest.fixture
def populated(rng, tmp_path):
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        first = registry.record_report(_report(rng), workload="gemm:ins")
        second = registry.record_report(_report(rng), workload="gemm:ins")
    return path, first, second


def test_cli_list_and_show(populated, capsys):
    path, first, second = populated
    assert insight_main(["--registry-dir", str(path), "list"]) == 0
    out = capsys.readouterr().out
    assert first in out and second in out
    assert insight_main(["--registry-dir", str(path), "show", first]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["run_id"] == first


def test_cli_diff_identical_ok(populated, capsys):
    path, first, second = populated
    assert insight_main(
        ["--registry-dir", str(path), "diff", first, second]
    ) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_diff_unknown_run_exits_2(populated, capsys):
    path, first, _ = populated
    assert insight_main(
        ["--registry-dir", str(path), "diff", first, "zzzzzz"]
    ) == 2


def test_cli_check_gates(populated, tmp_path, capsys):
    path, first, _ = populated
    baseline = tmp_path / "baseline.json"
    assert insight_main([
        "--registry-dir", str(path), "export-baseline", first,
        "--out", str(baseline),
    ]) == 0
    assert insight_main([
        "--registry-dir", str(path), "check", "--baseline", str(baseline),
    ]) == 0
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    payload["baselines"][0]["total_cycles"] += 1
    baseline.write_text(json.dumps(payload), encoding="utf-8")
    assert insight_main([
        "--registry-dir", str(path), "check", "--baseline", str(baseline),
    ]) == 1


def test_cli_report_writes_html(populated, tmp_path, capsys):
    path, _, _ = populated
    out = tmp_path / "report.html"
    assert insight_main([
        "--registry-dir", str(path), "report", "latest", "-o", str(out),
    ]) == 0
    assert out.read_text(encoding="utf-8").startswith("<!doctype html>")


def test_cli_attribute_and_prune(populated, capsys):
    path, _, _ = populated
    # the counter-heuristic `attribute` is gone: `explain` is the one
    # bound, and the removed subcommand is a usage error
    with pytest.raises(SystemExit) as excinfo:
        insight_main(["--registry-dir", str(path), "attribute", "latest"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'attribute'" in capsys.readouterr().err
    assert insight_main(["--registry-dir", str(path), "prune",
                         "--keep", "1"]) == 0
    assert "pruned 1 run(s)" in capsys.readouterr().out
