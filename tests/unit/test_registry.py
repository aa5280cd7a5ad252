"""Run registry: records, SQLite store, lookups, pruning, env switches."""

import numpy as np
import pytest

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.observability import Observability
from repro.observability.registry import (
    REGISTRY_SCHEMA_MANIFEST,
    SCHEMA_VERSION,
    RunRecord,
    RunRegistry,
    default_registry_dir,
    registry_enabled,
)


@pytest.fixture
def report(rng):
    acc = Accelerator(maeri_like(32, 8))
    a = rng.standard_normal((8, 16)).astype(np.float32)
    b = rng.standard_normal((16, 4)).astype(np.float32)
    acc.run_gemm(a, b, name="reg-gemm")
    return acc.report


def test_persisted_keys_match_the_manifest_of_the_current_version(rng):
    # what a record stores must be what REGISTRY_SCHEMA_MANIFEST says the
    # current SCHEMA_VERSION stores: a key added or dropped needs a
    # version bump and a new manifest entry, so readers can tell the
    # vintages apart
    acc = Accelerator(
        maeri_like(16, 4),
        observability=Observability.create(stalls=True, fabric=True),
    )
    acc.run_gemm(rng.standard_normal((8, 12)).astype(np.float32),
                 rng.standard_normal((12, 9)).astype(np.float32))
    acc.run_conv(rng.standard_normal((4, 2, 3, 3)).astype(np.float32),
                 rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
    record = RunRecord.from_report(acc.report, workload="schema",
                                   extra={"note": "x"})
    assert max(REGISTRY_SCHEMA_MANIFEST) == SCHEMA_VERSION
    declared = REGISTRY_SCHEMA_MANIFEST[SCHEMA_VERSION]
    assert sorted(record.payload) == declared["payload"]
    assert len(record.layers) == 2
    for row in record.layers:
        assert sorted(row) == declared["layer"]


def test_record_from_report_carries_headlines(report):
    record = RunRecord.from_report(report, workload="gemm:test",
                                   wall_clock_s=1.5)
    assert record.workload == "gemm:test"
    assert record.total_cycles == report.total_cycles
    assert record.total_macs == report.total_macs
    assert record.energy_total_uj > 0
    assert record.wall_clock_s == 1.5
    assert record.config_hash == report.metadata["config_hash"]
    assert record.payload["config"]["num_ms"] == 32
    layers = record.layers
    assert len(layers) == 1
    assert layers[0]["name"] == "reg-gemm"
    assert layers[0]["energy_total_uj"] > 0
    # traces/metrics never land in the database
    assert "extra" not in layers[0]
    # empty metrics still registers a stable marker
    assert record.payload["metrics"] == {"samples": 0.0}


def test_round_trip_through_sqlite(report, tmp_path):
    with RunRegistry(tmp_path) as registry:
        run_id = registry.record_report(report, workload="gemm:test")
        fetched = registry.get(run_id)
    assert fetched.run_id == run_id
    assert fetched.total_cycles == report.total_cycles
    assert fetched.payload["totals"]["cycles"] == report.total_cycles


def test_list_runs_newest_first_and_filters(report, tmp_path):
    with RunRegistry(tmp_path) as registry:
        first = registry.record_report(report, workload="gemm:a")
        second = registry.record_report(report, workload="gemm:b")
        runs = registry.list_runs()
        assert [r.run_id for r in runs] == [second, first]
        assert [r.run_id for r in registry.list_runs(workload="gemm:a")] \
            == [first]
        assert registry.count() == 2


def test_get_by_unique_prefix_and_ambiguity(report, tmp_path):
    with RunRegistry(tmp_path) as registry:
        run_id = registry.record_report(report, workload="gemm:test")
        registry.record_report(report, workload="gemm:other")
        assert registry.get(run_id[:8]).run_id == run_id
        with pytest.raises(KeyError):
            registry.get("no-such-run")
        with pytest.raises(KeyError):
            registry.get("")  # prefix of every run id -> ambiguous


def test_resolve_latest_references(report, tmp_path):
    with RunRegistry(tmp_path) as registry:
        registry.record_report(report, workload="gemm:a")
        newest = registry.record_report(report, workload="gemm:b")
        assert registry.resolve("latest").run_id == newest
        assert registry.resolve("latest:gemm:b").run_id == newest
        with pytest.raises(KeyError):
            registry.resolve("latest:gemm:zzz")


def test_resolve_empty_registry_raises(tmp_path):
    with RunRegistry(tmp_path) as registry:
        with pytest.raises(KeyError):
            registry.resolve("latest")


def test_prune_keeps_newest_per_group(report, tmp_path):
    with RunRegistry(tmp_path) as registry:
        ids = [registry.record_report(report, workload="gemm:x")
               for _ in range(5)]
        deleted = registry.prune(keep=2)
        assert deleted == 3
        remaining = {r.run_id for r in registry.list_runs()}
        assert remaining == set(ids[-2:])


def test_record_payload_for_experiments(tmp_path):
    with RunRegistry(tmp_path) as registry:
        run_id = registry.record_payload(
            "experiment:fig5", {"rows": [{"cycles": 10}]},
            total_cycles=10,
        )
        record = registry.get(run_id)
    assert record.source == "experiment"
    assert record.total_cycles == 10
    assert record.payload["rows"] == [{"cycles": 10}]


def test_explicit_sqlite_file_path(report, tmp_path):
    db = tmp_path / "custom.sqlite3"
    with RunRegistry(db) as registry:
        registry.record_report(report, workload="gemm:test")
    assert db.exists()


def test_default_dir_honors_env(tmp_path, monkeypatch):
    monkeypatch.setenv("STONNE_RUNS_DIR", str(tmp_path / "elsewhere"))
    assert default_registry_dir() == tmp_path / "elsewhere"


def test_registry_enabled_switch(monkeypatch):
    monkeypatch.delenv("STONNE_REGISTRY", raising=False)
    assert registry_enabled(default=True) is True
    assert registry_enabled(default=False) is False
    for value in ("0", "false", "no", "off", ""):
        monkeypatch.setenv("STONNE_REGISTRY", value)
        assert registry_enabled(default=True) is False
    monkeypatch.setenv("STONNE_REGISTRY", "1")
    assert registry_enabled(default=False) is True


def test_api_register_run(report, rng, tmp_path):
    from repro.api import StonneInstance

    instance = StonneInstance(maeri_like(32, 8))
    instance.configure_dmm(name="api-gemm")
    instance.configure_data(
        weights=rng.standard_normal((8, 16)).astype(np.float32),
        inputs=rng.standard_normal((16, 4)).astype(np.float32),
    )
    instance.run_operation()
    run_id = instance.register_run("gemm:api", registry=tmp_path)
    with RunRegistry(tmp_path) as registry:
        record = registry.get(run_id)
    assert record.workload == "gemm:api"
    assert record.source == "api"
    assert record.total_cycles == instance.report.total_cycles


def test_api_run_model_registers_when_env_enables(tmp_path, monkeypatch):
    from repro.api import StonneInstance
    from repro.frontend.models import build_model, model_input

    monkeypatch.setenv("STONNE_REGISTRY", "1")
    monkeypatch.setenv("STONNE_RUNS_DIR", str(tmp_path / "auto-runs"))
    instance = StonneInstance(maeri_like(32, 8))
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    instance.run_model(model, x)
    with RunRegistry() as registry:
        record = registry.latest()
    assert record is not None
    assert record.workload.startswith("model:")
    assert record.total_cycles == instance.report.total_cycles


def test_api_run_model_does_not_register_by_default(tmp_path, monkeypatch):
    from repro.api import StonneInstance
    from repro.frontend.models import build_model, model_input

    monkeypatch.delenv("STONNE_REGISTRY", raising=False)
    monkeypatch.setenv("STONNE_RUNS_DIR", str(tmp_path / "no-runs"))
    instance = StonneInstance(maeri_like(32, 8))
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    instance.run_model(model, x)
    assert not (tmp_path / "no-runs").exists()
