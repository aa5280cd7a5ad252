"""Fabric observatory: ledger, invariant, merge/ranking, insight surfaces.

Unit coverage of :mod:`repro.observability.fabric` (the per-level
accumulator, the consistency invariant, per-link spreads, FIFO occupancy
windows, the run-level merge and hottest-link ranking) and of the
``insight fabric`` layer built on top of it — including the CLI exit
codes for ledger-free and corrupted records.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import maeri_like
from repro.config.hardware import DistributionKind, ReductionKind
from repro.engine.accelerator import Accelerator
from repro.engine.stats import KNOWN_COUNTERS
from repro.errors import SimulationError
from repro.noc.distribution import build_distribution_network
from repro.noc.reduction import build_reduction_network
from repro.observability import Observability
from repro.observability.fabric import (
    FABRIC_COUNTERS,
    FABRIC_TIERS,
    FIFO_OCCUPANCY_COUNTERS,
    FIFO_WINDOW_LIMIT,
    LINK_DETAIL_LIMIT,
    FabricConsistencyError,
    FabricLedger,
    _spread,
    hottest_links,
    merge_fabric,
    tournament_levels,
    validate_fabric,
)
from repro.observability.insight import fabric_record, render_html
from repro.observability.insight import main as insight_main
from repro.observability.registry import RunRecord, RunRegistry


# ---- ledger accumulation ---------------------------------------------
def test_charge_rejects_unknown_tier():
    with pytest.raises(SimulationError, match="closed"):
        FabricLedger().charge_levels("pcie", "x", [1], [1])


def test_charge_rejects_negative_and_shape_mismatch():
    ledger = FabricLedger()
    with pytest.raises(SimulationError, match="negative"):
        ledger.charge_levels("dn", "dn_switch_traversals", [-1], [1])
    with pytest.raises(SimulationError, match="level"):
        ledger.charge_levels("dn", "dn_switch_traversals", [1, 2], [4])


def test_zero_charges_never_register_a_tier():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [0, 0], [1, 2])
    ledger.charge_levels("mn", "mn_multiplications", [5], [8], times=0)
    payload = ledger.finalize({}, 10)
    assert payload["tiers"] == {}
    assert "uninstrumented" not in payload


def test_recharge_with_different_shape_raises():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [3], [4])
    with pytest.raises(SimulationError, match="recharged"):
        ledger.charge_levels("dn", "dn_wire_traversals", [3], [4])
    with pytest.raises(SimulationError, match="recharged"):
        ledger.charge_levels("dn", "dn_switch_traversals", [1, 2], [4, 4])


def test_finalize_enforces_consistency_invariant():
    ledger = FabricLedger()
    ledger.charge_levels("rn", "rn_adder_ops", [3, 1], [4, 2])
    with pytest.raises(FabricConsistencyError, match="rn_adder_ops"):
        ledger.finalize({"rn_adder_ops": 5}, 10)
    out = ledger.finalize({"rn_adder_ops": 4}, 10)
    assert out["tiers"]["rn"]["levels"] == [3, 1]
    assert out["tiers"]["rn"]["utilization"] == [
        round(3 / (4 * 10), 6), round(1 / (2 * 10), 6)
    ]


def test_finalize_spreads_links_with_remainder_to_low_indices():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [7], [3])
    out = ledger.finalize({"dn_switch_traversals": 7}, 1)
    links = out["tiers"]["dn"]["links"]
    assert links == [[3, 2, 2]]
    assert sum(links[0]) == 7


def test_active_narrowing_concentrates_the_spread():
    ledger = FabricLedger()
    ledger.charge_levels(
        "mn", "mn_multiplications", [8], [4], active=[2]
    )
    out = ledger.finalize({"mn_multiplications": 8}, 2)
    # only the 2 mapped links carry traffic; the idle links stay at zero
    assert out["tiers"]["mn"]["links"] == [[4, 4, 0, 0]]


def test_wide_levels_keep_level_detail_but_drop_links():
    ledger = FabricLedger()
    width = LINK_DETAIL_LIMIT + 1
    ledger.charge_levels("mn", "mn_multiplications", [width], [width])
    out = ledger.finalize({"mn_multiplications": width}, 1)
    assert out["tiers"]["mn"]["links"] is None
    assert out["tiers"]["mn"]["levels"] == [width]


def test_fifo_unknown_name_rejected():
    with pytest.raises(SimulationError, match="closed"):
        FabricLedger().record_fifo("dram_gb", 4, 1, 1, 1, 10)


def test_fifo_accumulates_and_tracks_high_watermark():
    ledger = FabricLedger()
    ledger.record_fifo("gb_dn", 4, pushes=6, pops=6, depth=2, window_cycles=5)
    ledger.record_fifo("gb_dn", 4, pushes=4, pops=4, depth=4, window_cycles=3)
    out = ledger.finalize({"ctrl_fifo_pushes": 10}, 8)
    cell = out["fifos"]["gb_dn"]
    assert cell["pushes"] == 10 and cell["pops"] == 10
    assert cell["high_watermark"] == 4
    assert cell["windows"] == [[5, 2], [3, 4]]


def test_fifo_anchor_mismatch_raises():
    ledger = FabricLedger()
    ledger.record_fifo("rn_gb", 2, pushes=3, pops=3, depth=1, window_cycles=4)
    with pytest.raises(FabricConsistencyError, match="ctrl_fifo_pops"):
        ledger.finalize({"ctrl_fifo_pops": 99}, 4)


def test_fifo_windows_stay_bounded_and_keep_watermarks():
    ledger = FabricLedger()
    for i in range(1000):
        ledger.record_fifo("gb_dn", 4, 1, 1, depth=(4 if i == 500 else 1),
                           window_cycles=1)
    out = ledger.finalize({"ctrl_fifo_pushes": 1000}, 1000)
    windows = out["fifos"]["gb_dn"]["windows"]
    assert len(windows) <= FIFO_WINDOW_LIMIT
    assert sum(w[0] for w in windows) == 1000  # cycles conserved
    assert max(w[1] for w in windows) == 4     # watermark survives merges


def test_empty_ledger_flags_unattributed_noc_activity():
    payload = FabricLedger().finalize({"dn_switch_traversals": 9}, 5)
    assert payload["uninstrumented"] == ["dn_switch_traversals"]


def test_reset_drops_previous_layer():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [3], [2])
    ledger.record_fifo("gb_dn", 4, 1, 1, 1, 1)
    ledger.reset()
    out = ledger.finalize({}, 5)
    assert out["tiers"] == {} and out["fifos"] == {}


def _spread_per_link(total, active, width):
    """The per-link comprehension ``_spread`` used to be."""
    active = max(1, min(active, width))
    quotient, remainder = divmod(total, active)
    return [
        quotient + (1 if index < remainder else 0) if index < active else 0
        for index in range(width)
    ]


@settings(max_examples=300, deadline=None)
@given(
    total=st.one_of(st.just(0), st.integers(0, 10**12)),
    # active <= 0 and active > width are both clamped
    active=st.integers(-3, 300),
    width=st.integers(1, 260),
)
@example(total=0, active=4, width=4)
@example(total=7, active=9, width=3)
@example(total=7, active=0, width=3)
@example(total=7, active=-2, width=3)
@example(total=5, active=3, width=1)
def test_spread_equals_the_per_link_comprehension(total, active, width):
    row = _spread(total, active, width)
    assert row == _spread_per_link(total, active, width)
    assert all(type(count) is int for count in row)


#: every DN and RN fabric, on a leaf count that is no power of two where
#: the fabric allows one
NETWORKS = [
    *(pytest.param(build_distribution_network, kind, 13, id=kind.name)
      for kind in DistributionKind),
    *(pytest.param(build_reduction_network, kind,
                   16 if kind is ReductionKind.RT else 13, id=kind.name)
      for kind in ReductionKind),
]


@pytest.mark.parametrize("build,kind,inputs", NETWORKS)
def test_a_caller_cannot_change_the_cached_geometry(build, kind, inputs):
    """``fabric_level_widths()`` hands out a fresh list: mutating it
    moves neither a later answer nor the widths the ledger is charged."""
    network = build(kind, inputs, 4)
    network.obs = Observability.create(fabric=True)
    widths = network.fabric_level_widths()
    expected = list(widths)
    widths.append(99)
    widths[0] = 7
    assert network.fabric_level_widths() == expected
    if hasattr(network, "record_cluster_reductions"):
        network.record_cluster_reductions(5, 3)
        tier, counter = "rn", network.adder_counter
    else:
        network.enqueue(2, 6, times=3)
        tier, counter = "dn", network.fabric_counter
    again = network.fabric_level_widths()
    again.clear()
    out = network.obs.fabric.finalize(network.counters.as_dict(), 10)
    assert out["tiers"][tier]["counter"] == counter
    assert out["tiers"][tier]["links_per_level"] == [
        max(1, width) for width in expected
    ]


@pytest.mark.parametrize("kind", list(ReductionKind))
def test_reduction_rows_are_charged_as_computed(kind):
    """The per-cluster-size rows the RN memoises are what
    ``fabric_reduction_levels`` computes, charge after charge."""
    network = build_reduction_network(kind, 16, 4)
    network.obs = Observability.create(fabric=True)
    sizes = [2, 4, 8, 16] if kind is ReductionKind.RT else [3, 16, 5, 3, 1]
    want = [0] * len(network.fabric_level_widths())
    for waves, size in enumerate(sizes, start=1):
        network.record_cluster_reductions(size, waves)
        row = network.fabric_reduction_levels(size)
        want = [a + b * waves for a, b in zip(want, row)]
    out = network.obs.fabric.finalize(network.counters.as_dict(), 10)
    assert out["tiers"]["rn"]["levels"] == want


# ---- helpers: tournament, validate, merge, ranking --------------------
@pytest.mark.parametrize("count", [2, 3, 7, 8, 13, 64, 100])
def test_tournament_levels_sum_to_count_minus_one(count):
    levels = tournament_levels(count)
    assert sum(levels) == count - 1
    assert all(level > 0 for level in levels)


def test_validate_fabric_catches_divergence():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [4], [2])
    payload = ledger.finalize({"dn_switch_traversals": 4}, 2)
    assert not validate_fabric(payload, {"dn_switch_traversals": 4}, 2)
    problems = validate_fabric(payload, {"dn_switch_traversals": 5}, 3)
    text = "\n".join(problems)
    assert "levels sum to 4" in text
    assert "fabric cycles" in text


def test_validate_fabric_checks_link_rows():
    payload = {
        "tiers": {"dn": {
            "counter": "dn_switch_traversals",
            "levels": [4],
            "links_per_level": [2],
            "utilization": [1.0],
            "links": [[3, 2]],
        }},
        "fifos": {},
        "cycles": 2,
    }
    problems = validate_fabric(payload, {"dn_switch_traversals": 4}, 2)
    assert any("links sum to 5" in p for p in problems)


def test_merge_fabric_sums_and_recomputes_utilization():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [4], [2])
    first = ledger.finalize({"dn_switch_traversals": 4}, 2)
    ledger.reset()
    ledger.charge_levels("dn", "dn_switch_traversals", [6], [2])
    second = ledger.finalize({"dn_switch_traversals": 6}, 3)
    merged = merge_fabric([first, second])
    assert merged["tiers"]["dn"]["levels"] == [10]
    assert merged["cycles"] == 5
    assert merged["tiers"]["dn"]["utilization"] == [round(10 / (2 * 5), 6)]
    assert merged["tiers"]["dn"]["links"] == [[5, 5]]


def test_merge_fabric_rejects_disagreeing_geometry():
    ledger = FabricLedger()
    ledger.charge_levels("dn", "dn_switch_traversals", [4], [2])
    narrow = ledger.finalize({"dn_switch_traversals": 4}, 1)
    ledger.reset()
    ledger.charge_levels("dn", "dn_switch_traversals", [4, 2], [2, 4])
    deep = ledger.finalize({"dn_switch_traversals": 6}, 1)
    with pytest.raises(ValueError, match="geometry"):
        merge_fabric([narrow, deep])


def test_hottest_links_ranking_is_deterministic():
    fabric = {
        "cycles": 10,
        "tiers": {
            "dn": {"links": [[5, 3], [0, 5]]},
            "rn": {"links": [[5]]},
        },
    }
    rows = hottest_links(fabric, top=3)
    assert [(r["tier"], r["level"], r["link"], r["traversals"])
            for r in rows] == [
        ("dn", 0, 0, 5), ("dn", 1, 1, 5), ("rn", 0, 0, 5),
    ]
    assert rows[0]["per_cycle"] == 0.5
    assert hottest_links(fabric, top=0) == []


# ---- counter-name registry ---------------------------------------------
def test_fabric_metric_names_registered_in_known_counters():
    assert set(FABRIC_COUNTERS) == set(FABRIC_TIERS)
    for name in FABRIC_COUNTERS.values():
        assert name in KNOWN_COUNTERS
    for name in FIFO_OCCUPANCY_COUNTERS.values():
        assert name in KNOWN_COUNTERS


# ---- insight fabric over real runs ------------------------------------
def _fabric_report(rng, name="fb-gemm"):
    acc = Accelerator(
        maeri_like(num_ms=16, bandwidth=8),
        observability=Observability.create(fabric=True),
    )
    a = rng.standard_normal((16, 4)).astype(np.float32)
    b = rng.standard_normal((4, 16)).astype(np.float32)
    acc.run_gemm(a, b, name=name)
    return acc.report


def test_fabric_record_merges_and_ranks(rng, tmp_path):
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(_fabric_report(rng), workload="gemm:fb")
        record = registry.resolve("latest")
    assert record.schema == 3
    result = fabric_record(record)
    assert result["consistency"]["ok"]
    assert result["coverage"] == pytest.approx(1.0)
    assert set(result["fabric"]["tiers"]) <= set(FABRIC_TIERS)
    assert result["hottest_links"]
    assert result["layers"][0]["layer"] == "fb-gemm"


def test_fabric_record_without_ledgers_is_actionable(rng, tmp_path):
    acc = Accelerator(maeri_like(16, 8))
    a = rng.standard_normal((8, 8)).astype(np.float32)
    acc.run_gemm(a, a)
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(acc.report, workload="gemm:plain")
        record = registry.resolve("latest")
    with pytest.raises(ValueError, match="--fabric"):
        fabric_record(record)


def test_render_html_includes_fabric_section(rng, tmp_path):
    with RunRegistry(tmp_path / "runs") as registry:
        registry.record_report(_fabric_report(rng), workload="gemm:fb")
        record = registry.resolve("latest")
    page = render_html(record)
    assert "Fabric observatory" in page
    assert "fabric tree heatmap" in page
    assert "FIFO occupancy" in page
    # a ledger-free record renders the classic report, no fabric block
    plain = RunRecord.from_report(
        Accelerator(maeri_like(16, 8)).report, workload="empty"
    )
    assert "Fabric observatory" not in render_html(plain)


# ---- CLI: insight fabric ----------------------------------------------
@pytest.fixture
def fabric_registry(rng, tmp_path):
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        run_id = registry.record_report(_fabric_report(rng), workload="gemm:fb")
    return path, run_id


def test_cli_fabric_text_and_json(fabric_registry, tmp_path, capsys):
    path, _ = fabric_registry
    assert insight_main(["--registry-dir", str(path), "fabric"]) == 0
    out = capsys.readouterr().out
    assert "hottest" in out and "FIFO occupancy" in out
    dest = tmp_path / "fabric.json"
    assert insight_main([
        "--registry-dir", str(path), "fabric", "latest",
        "--format", "json", "-o", str(dest),
    ]) == 0
    payload = json.loads(dest.read_text(encoding="utf-8"))
    assert payload["consistency"]["ok"]
    for tier, cell in payload["fabric"]["tiers"].items():
        assert tier in FABRIC_TIERS
        assert sum(cell["levels"]) >= 0


def test_cli_fabric_without_ledgers_exits_2(rng, tmp_path, capsys):
    acc = Accelerator(maeri_like(16, 8))
    a = rng.standard_normal((8, 8)).astype(np.float32)
    acc.run_gemm(a, a)
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        registry.record_report(acc.report, workload="gemm:plain")
    assert insight_main(["--registry-dir", str(path), "fabric"]) == 2
    assert "--fabric" in capsys.readouterr().err


def test_cli_fabric_corrupted_ledger_exits_2(fabric_registry, capsys):
    path, run_id = fabric_registry
    with RunRegistry(path) as registry:
        payload = dict(registry.resolve(run_id).payload)
        payload["layers"][0]["fabric"]["tiers"]["dn"]["levels"][0] += 1
        registry._conn.execute(
            "UPDATE runs SET payload = ? WHERE run_id = ?",
            (json.dumps(payload), run_id),
        )
        registry._conn.commit()
    assert insight_main(["--registry-dir", str(path), "fabric", run_id]) == 2
    assert "CONSISTENCY VIOLATED" in capsys.readouterr().err
