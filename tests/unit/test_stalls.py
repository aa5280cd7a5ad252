"""Stall ledger: taxonomy, conservation, explain surfaces.

Unit coverage of :mod:`repro.observability.stalls` (the accumulator, the
conservation invariant, the run-level merge, the roofline call) and of
the ``insight explain`` layer built on top of it — the one source of a
layer's bound, which the report's timeline colours by — including the
CLI paths the satellite flags added (``explain --diff``, ``list --json``,
``prune --dry-run``).
"""

import json
import re

import numpy as np
import pytest

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.engine.stats import KNOWN_COUNTERS
from repro.errors import SimulationError
from repro.observability import Observability
from repro.observability.insight import (
    explain_diff,
    explain_record,
    primary_stall_row,
    render_html,
)
from repro.observability.insight import main as insight_main
from repro.observability.registry import RunRecord, RunRegistry
from repro.observability.stalls import (
    BUCKET_COUNTERS,
    STALL_BUCKETS,
    StallConservationError,
    StallLedger,
    classify_bound,
    merge_ledgers,
    validate_ledger,
)


# ---- ledger accumulation ---------------------------------------------
def test_charge_rejects_unknown_bucket():
    ledger = StallLedger()
    with pytest.raises(SimulationError, match="closed"):
        ledger.charge("controller", "coffee_break", 3)


def test_charge_rejects_negative():
    ledger = StallLedger()
    with pytest.raises(SimulationError, match="negative"):
        ledger.charge("controller", "compute_busy", -1)


def test_finalize_fills_idle_and_orders_canonically():
    ledger = StallLedger()
    ledger.charge("dn", "noc_distribution", 30)
    ledger.charge("controller", "compute_busy", 60)
    ledger.charge("controller", "weight_fill", 40)
    out = ledger.finalize(100)
    assert list(out) == ["controller", "dn"]  # components sorted
    assert out["controller"] == {"compute_busy": 60, "weight_fill": 40}
    assert out["dn"] == {"noc_distribution": 30, "idle": 70}
    # canonical bucket order within each component
    assert list(out["dn"]) == ["noc_distribution", "idle"]
    assert not validate_ledger(out, 100)


def test_finalize_overcharge_raises():
    ledger = StallLedger()
    ledger.charge("controller", "compute_busy", 101)
    with pytest.raises(StallConservationError, match="charged 101"):
        ledger.finalize(100)


def test_finalize_empty_ledger_degrades_to_idle_controller():
    out = StallLedger().finalize(42)
    assert out == {"controller": {"idle": 42}}
    assert not validate_ledger(out, 42)


def test_zero_charges_are_dropped():
    ledger = StallLedger()
    ledger.charge("controller", "dram_stall", 0)
    assert ledger.finalize(10) == {"controller": {"idle": 10}}


def test_reset_drops_previous_layer():
    ledger = StallLedger()
    ledger.charge("controller", "compute_busy", 5)
    ledger.reset()
    assert ledger.finalize(7) == {"controller": {"idle": 7}}


# ---- validation / merge / classification -----------------------------
def test_validate_catches_bad_sum_unknown_and_negative():
    stalls = {
        "controller": {"compute_busy": 5, "siesta": 5},
        "dn": {"idle": -3},
    }
    problems = validate_ledger(stalls, 10)
    text = "\n".join(problems)
    assert "unknown bucket(s) siesta" in text
    assert "dn: buckets sum to -3, layer ran 10" in text
    assert "negative bucket(s) idle" in text


def test_merge_ledgers_sums_per_cell():
    merged = merge_ledgers([
        {"controller": {"compute_busy": 3, "idle": 1}},
        {"controller": {"compute_busy": 4}, "dn": {"noc_distribution": 2}},
    ])
    assert merged == {
        "controller": {"compute_busy": 7, "idle": 1},
        "dn": {"noc_distribution": 2},
    }


def test_classify_bound_roofline_split():
    assert classify_bound({"compute_busy": 10, "dram_stall": 9}) == "compute-bound"
    assert classify_bound({"compute_busy": 4, "noc_distribution": 5}) == "bandwidth-bound"
    # idle votes for neither side; ties go to compute
    assert classify_bound({"idle": 100}) == "compute-bound"


def test_bucket_names_registered_in_known_counters():
    assert set(BUCKET_COUNTERS) == set(STALL_BUCKETS)
    for name in BUCKET_COUNTERS.values():
        assert name in KNOWN_COUNTERS


# ---- explain over real runs ------------------------------------------
def _stalled_report(rng, rn_bandwidth=None, name="st-gemm"):
    overrides = {} if rn_bandwidth is None else {"rn_bandwidth": rn_bandwidth}
    acc = Accelerator(
        maeri_like(num_ms=16, bandwidth=8, **overrides),
        observability=Observability.create(stalls=True),
    )
    a = rng.standard_normal((16, 4)).astype(np.float32)
    b = rng.standard_normal((4, 16)).astype(np.float32)
    acc.run_gemm(a, b, name=name)
    return acc.report


def test_narrow_rn_shows_fifo_backpressure(rng):
    report = _stalled_report(rng, rn_bandwidth=1)
    layer = report.layers[0]
    stalls = layer.extra["stalls"]
    assert not validate_ledger(stalls, layer.cycles)
    assert stalls["controller"]["fifo_backpressure"] > 0


def test_primary_stall_row_prefers_exhaustive_component(rng):
    report = _stalled_report(rng)
    component, buckets = primary_stall_row(report.layers[0].extra["stalls"])
    assert component == "controller"
    assert buckets.get("idle", 0) == 0


def test_explain_record_totals_and_bound(rng, tmp_path):
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(_stalled_report(rng), workload="gemm:st")
        record = registry.resolve("latest")
    explained = explain_record(record)
    assert explained["conservation"]["ok"]
    assert explained["coverage"] == pytest.approx(1.0)
    assert sum(explained["buckets"].values()) == explained["total_cycles"]
    assert explained["bound"] in ("compute-bound", "bandwidth-bound")
    assert explained["layers"][0]["layer"] == "st-gemm"


def test_explain_record_without_ledgers_is_actionable(rng, tmp_path):
    acc = Accelerator(maeri_like(16, 8))
    a = rng.standard_normal((8, 8)).astype(np.float32)
    acc.run_gemm(a, a)
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(acc.report, workload="gemm:plain")
        record = registry.resolve("latest")
    with pytest.raises(ValueError, match="--stalls"):
        explain_record(record)


def test_explain_diff_attributes_cycle_delta(rng, tmp_path):
    with RunRegistry(tmp_path / "runs") as registry:
        fast = registry.record_report(_stalled_report(rng), workload="gemm:st")
        slow = registry.record_report(
            _stalled_report(rng, rn_bandwidth=1), workload="gemm:st"
        )
        old = registry.resolve(fast)
        new = registry.resolve(slow)
    result = explain_diff(old, new)
    assert result["cycle_delta"] == new.total_cycles - old.total_cycles
    assert sum(d["delta"] for d in result["buckets"].values()) \
        == result["cycle_delta"]
    assert result["buckets"]["fifo_backpressure"]["delta"] > 0


def test_render_html_includes_stall_section(rng, tmp_path):
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(_stalled_report(rng), workload="gemm:st")
        record = registry.resolve("latest")
    page = render_html(record)
    assert "Stall attribution" in page
    assert "conservation" in page
    # a ledger-free record renders the classic report, no stall block
    plain = RunRecord.from_report(
        Accelerator(maeri_like(16, 8)).report, workload="empty"
    )
    assert "Stall attribution" not in render_html(plain)


def test_render_html_timeline_colours_by_ledger_bound(rng):
    acc = Accelerator(maeri_like(num_ms=16, bandwidth=4),
                      observability=Observability.create(stalls=True))
    for name, (m, k, n) in (("wide", (16, 4, 16)), ("deep", (8, 32, 4))):
        acc.run_gemm(rng.standard_normal((m, k)).astype(np.float32),
                     rng.standard_normal((k, n)).astype(np.float32),
                     name=name)
    record = RunRecord.from_report(acc.report, workload="gemm:bounds")
    calls = {row["layer"]: row["bound"]
             for row in explain_record(record)["layers"]}
    assert sorted(calls.values()) == ["bandwidth-bound", "compute-bound"]
    timeline = render_html(record).split("<h2>Timeline</h2>")[1]
    timeline = timeline.split("<h2>")[0]
    for layer, bound in calls.items():
        assert re.search(rf"<title>{layer} \(gemm\): [^<]*, {bound}</title>",
                         timeline)
    # both calls get their own colour in the legend
    assert "compute-bound</span>" in timeline
    assert "bandwidth-bound</span>" in timeline


# ---- CLI: explain + satellite flags ----------------------------------
@pytest.fixture
def stalled_registry(rng, tmp_path):
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        first = registry.record_report(_stalled_report(rng), workload="gemm:st")
        second = registry.record_report(
            _stalled_report(rng, rn_bandwidth=1), workload="gemm:st"
        )
    return path, first, second


def test_cli_explain_text_and_json(stalled_registry, tmp_path, capsys):
    path, _, _ = stalled_registry
    assert insight_main(["--registry-dir", str(path), "explain"]) == 0
    assert "where the cycles went" in capsys.readouterr().out
    out = tmp_path / "explain.json"
    assert insight_main([
        "--registry-dir", str(path), "explain", "latest",
        "--format", "json", "-o", str(out),
    ]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["conservation"]["ok"]
    assert sum(payload["buckets"].values()) == payload["total_cycles"]


def test_cli_explain_diff(stalled_registry, capsys):
    path, first, second = stalled_registry
    assert insight_main([
        "--registry-dir", str(path), "explain", "--diff", first, second,
    ]) == 0
    assert "fifo_backpressure" in capsys.readouterr().out


def test_cli_explain_without_ledgers_exits_2(rng, tmp_path, capsys):
    acc = Accelerator(maeri_like(16, 8))
    a = rng.standard_normal((8, 8)).astype(np.float32)
    acc.run_gemm(a, a)
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        registry.record_report(acc.report, workload="gemm:plain")
    assert insight_main(["--registry-dir", str(path), "explain"]) == 2
    assert "--stalls" in capsys.readouterr().err


def test_cli_explain_corrupted_ledger_exits_2(stalled_registry, capsys):
    path, first, _ = stalled_registry
    with RunRegistry(path) as registry:
        payload = dict(registry.resolve(first).payload)
        payload["layers"][0]["stalls"]["controller"]["compute_busy"] += 1
        registry._conn.execute(
            "UPDATE runs SET payload = ? WHERE run_id = ?",
            (json.dumps(payload), first),
        )
        registry._conn.commit()
    assert insight_main(["--registry-dir", str(path), "explain", first]) == 2
    assert "CONSERVATION VIOLATED" in capsys.readouterr().err


def test_cli_list_json(stalled_registry, capsys):
    path, first, second = stalled_registry
    assert insight_main(["--registry-dir", str(path), "list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["run_id"] for row in rows} == {first, second}
    assert all("total_cycles" in row for row in rows)


def test_cli_prune_dry_run_deletes_nothing(stalled_registry, rng, capsys):
    path, first, second = stalled_registry
    # prune groups by (workload, config hash): give `second` a newer
    # sibling with the same config so there is a real candidate
    with RunRegistry(path) as registry:
        registry.record_report(
            _stalled_report(rng, rn_bandwidth=1), workload="gemm:st"
        )
    assert insight_main([
        "--registry-dir", str(path), "prune", "--keep", "1", "--dry-run",
    ]) == 0
    out = capsys.readouterr().out
    assert f"would prune {second}" in out
    with RunRegistry(path) as registry:
        assert registry.count() == 3  # dry run deleted nothing
    # the real prune then deletes exactly the dry-run candidate
    assert insight_main([
        "--registry-dir", str(path), "prune", "--keep", "1",
    ]) == 0
    with RunRegistry(path) as registry:
        assert registry.count() == 2
