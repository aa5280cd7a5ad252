"""Malformed baseline files are typed errors; ``null`` gates round-trip.

``check --baseline`` reads a committed, hand-editable file, so every
shape it can take must end in a verdict or a :class:`ValueError` the CLI
reports with exit 2 — never a ``TypeError`` traceback mid-gate. A
``null`` threshold means "axis disabled", as :class:`Thresholds`
documents, both when a file says so and when ``export_baseline`` writes
a disabled axis. ``--wall-pct`` gates only ``diff``: ``check`` and
``export-baseline`` never read it, so they do not accept it.
"""

import json

import numpy as np
import pytest

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.observability.insight import (
    Thresholds,
    baseline_thresholds,
    check_baseline,
    export_baseline,
    load_baseline,
)
from repro.observability.insight import main as insight_main
from repro.observability.registry import RunRegistry


@pytest.fixture
def registered(rng, tmp_path):
    """A registry holding one GEMM run, and that run's record."""
    acc = Accelerator(maeri_like(32, 8))
    acc.run_gemm(rng.standard_normal((8, 16)).astype(np.float32),
                 rng.standard_normal((16, 4)).astype(np.float32))
    path = tmp_path / "runs"
    with RunRegistry(path) as registry:
        record = registry.get(
            registry.record_report(acc.report, workload="gemm:bl")
        )
    return path, record


def _write(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _check(registry_dir, baseline_path, *flags):
    return insight_main(["--registry-dir", str(registry_dir), "check",
                         "--baseline", str(baseline_path), *flags])


def test_null_cycles_threshold_disables_the_cycle_gate(registered, tmp_path):
    path, record = registered
    payload = export_baseline([record])
    payload["thresholds"]["cycles_pct"] = None
    payload["baselines"][0]["total_cycles"] += 100
    baseline = _write(tmp_path, payload)
    assert baseline_thresholds(load_baseline(baseline)).cycles_pct is None
    assert _check(path, baseline) == 0


def test_check_baseline_honours_disabled_cycle_gate(registered):
    path, record = registered
    payload = export_baseline([record])
    payload["baselines"][0]["total_cycles"] += 100
    with RunRegistry(path) as registry:
        results, ok = check_baseline(registry, payload,
                                     Thresholds(cycles_pct=None))
        assert ok and results[0]["status"] == "ok"
        # the cycle delta is still reported, only not gated
        assert results[0]["cycles_pct"] != 0.0
        _, ok = check_baseline(registry, payload)
        assert not ok


def test_exported_disabled_axis_round_trips(registered, tmp_path):
    path, record = registered
    payload = export_baseline([record], Thresholds(energy_pct=None))
    payload["baselines"][0]["energy_total_uj"] *= 2
    baseline = _write(tmp_path, payload)
    gates = baseline_thresholds(load_baseline(baseline))
    assert gates.energy_pct is None and gates.cycles_pct == 0.0
    assert _check(path, baseline) == 0


def test_non_object_baseline_entry_is_a_value_error(tmp_path, capsys):
    baseline = _write(tmp_path, {"schema": 1, "baselines": [5]})
    with pytest.raises(ValueError, match=r"baselines\[0\] is not an object"):
        load_baseline(baseline)
    assert _check(tmp_path / "runs", baseline) == 2
    assert "is not an object" in capsys.readouterr().err


def test_baselines_must_be_a_list(tmp_path):
    baseline = _write(tmp_path, {
        "schema": 1,
        "baselines": {"workload": "gemm:bl", "total_cycles": 1},
    })
    with pytest.raises(ValueError, match="needs a 'baselines' list"):
        load_baseline(baseline)


@pytest.mark.parametrize("thresholds", [
    [0.0],
    {"cycles_pct": "0"},
])
def test_malformed_thresholds_are_a_value_error(registered, tmp_path,
                                                thresholds):
    path, record = registered
    payload = dict(export_baseline([record]), thresholds=thresholds)
    baseline = _write(tmp_path, payload)
    with pytest.raises(ValueError, match="thresholds"):
        load_baseline(baseline)
    assert _check(path, baseline) == 2


@pytest.mark.parametrize("field,value", [
    ("total_cycles", "444"),
    ("energy_total_uj", None),
    ("config_hash", 7),
])
def test_mistyped_entry_field_is_a_value_error(registered, tmp_path, field,
                                               value):
    path, record = registered
    payload = export_baseline([record])
    payload["baselines"][0][field] = value
    baseline = _write(tmp_path, payload)
    with pytest.raises(ValueError, match=field):
        load_baseline(baseline)
    assert _check(path, baseline) == 2


@pytest.mark.parametrize("command", ["check", "export-baseline"])
def test_wall_pct_is_only_a_diff_flag(registered, tmp_path, capsys, command):
    path, record = registered
    baseline = _write(tmp_path, export_baseline([record]))
    target = (["--baseline", str(baseline)] if command == "check"
              else [record.run_id])
    with pytest.raises(SystemExit) as excinfo:
        insight_main(["--registry-dir", str(path), command, *target,
                      "--wall-pct", "0"])
    assert excinfo.value.code == 2
    assert "--wall-pct" in capsys.readouterr().err
    # diff still gates on it
    assert insight_main(["--registry-dir", str(path), "diff", record.run_id,
                         record.run_id, "--wall-pct", "0"]) == 0
