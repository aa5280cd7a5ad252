"""Unit tests for ``repro.parallel``: recording, caching, runner."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.api import StonneInstance
from repro.config import TileConfig, maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.frontend.layers import Conv2d, Flatten, Linear, MaxPool2d
from repro.frontend.module import Module, Sequential
from repro.frontend.simulated import (
    detach_context,
    simulate,
    simulate_parallel,
)
from repro.parallel import (
    CACHE_SCHEMA_VERSION,
    DATA_DEPENDENT_KINDS,
    LayerWorkload,
    ParallelModelRunner,
    SimCache,
    cacheable,
    canonical_key,
    canonical_key_source,
    record_model,
)
from repro.parallel import cache as cache_module


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 4, 3, padding=1, name="c1", rng=rng),
        MaxPool2d(2, name="p1"),
        Conv2d(4, 4, 3, name="c2", rng=rng),
        Flatten(),
        Linear(4 * 2 * 2, 10, name="fc", rng=rng),
    )


def _tiny_input(seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1, 2, 8, 8)).astype(np.float32)


def _gemm_workload(m=4, k=8, n=4, name="g", seed=0, **params):
    rng = np.random.default_rng(seed)
    return LayerWorkload(
        index=0, kind="gemm", name=name, params={"tile": None, **params},
        operands={
            "weights": rng.standard_normal((m, k)).astype(np.float32),
            "inputs": rng.standard_normal((k, n)).astype(np.float32),
        },
    )


# ---- recording ---------------------------------------------------------
def test_record_model_captures_offloaded_layers(small_maeri):
    model = _tiny_model()
    x = _tiny_input()
    output, workloads = record_model(model, x, small_maeri)
    assert [w.kind for w in workloads] == ["conv", "maxpool", "conv", "gemm"]
    assert [w.index for w in workloads] == [0, 1, 2, 3]
    assert not any(w.data_dependent for w in workloads)
    assert output.shape == (1, 10)


def test_record_model_output_matches_simulated_run(small_maeri):
    model = _tiny_model()
    x = _tiny_input()
    recorded, _ = record_model(model, x, small_maeri)
    simulate(model, Accelerator(small_maeri))
    reference = model(x)
    detach_context(model)
    assert np.array_equal(recorded, reference)


def test_record_model_marks_sparse_config_data_dependent(small_sigma):
    model = _tiny_model()
    _, workloads = record_model(model, _tiny_input(), small_sigma)
    assert all(w.data_dependent for w in workloads)


def test_record_model_detaches_on_failure(small_maeri):
    model = _tiny_model()
    with pytest.raises(Exception):
        record_model(model, np.ones((1, 2, 1, 1), np.float32), small_maeri)
    assert all(m.context is None for m in model.modules())


def test_shapes_of_compressed_operands_do_not_densify(monkeypatch):
    """``shapes()`` used to call ``to_dense()`` just to read ``.shape``."""
    from repro.tensors.sparse import BitmapMatrix, CsrMatrix, from_dense

    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 9)).astype(np.float32)
    dense[rng.random((6, 9)) < 0.6] = 0.0
    inputs = rng.standard_normal((9, 4)).astype(np.float32)
    workloads = [
        LayerWorkload(index=0, kind="spmm", name=fmt,
                      operands={"weights": weights, "inputs": inputs},
                      data_dependent=True)
        for fmt, weights in (
            ("dense", dense),
            ("csr", from_dense(dense, "csr")),
            ("bitmap", from_dense(dense, "bitmap")),
        )
    ]

    def boom(self):  # pragma: no cover - must never run
        raise AssertionError("shapes() densified a compressed operand")

    monkeypatch.setattr(CsrMatrix, "to_dense", boom)
    monkeypatch.setattr(BitmapMatrix, "to_dense", boom)
    for workload in workloads:
        assert workload.shapes() == {"weights": (6, 9), "inputs": (9, 4)}


# ---- cacheability ------------------------------------------------------
def test_data_dependent_kinds_are_uncacheable(small_maeri):
    for kind in sorted(DATA_DEPENDENT_KINDS):
        workload = LayerWorkload(index=0, kind=kind, name=kind,
                                 data_dependent=True)
        assert not cacheable(workload, small_maeri)
        assert SimCache.key(workload, small_maeri) is None
        with pytest.raises(ValueError):
            canonical_key_source(workload, small_maeri)


def test_sparse_config_is_uncacheable(small_sigma, small_maeri):
    workload = _gemm_workload()
    assert cacheable(workload, small_maeri)
    assert not cacheable(workload, small_sigma)
    assert SimCache.key(workload, small_sigma) is None


def test_data_dependent_flag_overrides_kind(small_maeri):
    workload = LayerWorkload(index=0, kind="gemm", name="g",
                             params={"tile": None},
                             operands={"weights": np.ones((2, 2)),
                                       "inputs": np.ones((2, 2))},
                             data_dependent=True)
    assert not cacheable(workload, small_maeri)


# ---- canonical keys ----------------------------------------------------
def test_key_ignores_names_and_values(small_maeri):
    a = _gemm_workload(name="layer-a", seed=0)
    b = _gemm_workload(name="layer-b", seed=99)
    assert canonical_key(a, small_maeri) == canonical_key(b, small_maeri)


def test_key_depends_on_shape_params_and_config(small_maeri):
    base = _gemm_workload()
    keys = {canonical_key(base, small_maeri)}
    keys.add(canonical_key(_gemm_workload(m=8), small_maeri))
    keys.add(canonical_key(
        _gemm_workload(tile=TileConfig(t_k=2, t_n=2)), small_maeri
    ))
    keys.add(canonical_key(base, maeri_like(num_ms=64, bandwidth=8)))
    keys.add(canonical_key(base, tpu_like(num_pes=16)))
    assert len(keys) == 5


def test_key_source_is_canonical_json(small_maeri):
    source = canonical_key_source(_gemm_workload(), small_maeri)
    record = json.loads(source)
    assert record["schema"] == CACHE_SCHEMA_VERSION
    assert record["kind"] == "gemm"
    assert json.dumps(record, sort_keys=True) == source


def test_key_names_only_the_payload_changing_lenses(small_maeri):
    workload = _gemm_workload()
    plain = canonical_key_source(workload, small_maeri)
    # trace and metrics never reach a stored payload: lens-free key, and
    # byte for byte the key source from before lenses were keyed
    quiet = {"trace": True, "metrics_every": 64, "stalls": False,
             "fabric": False}
    assert canonical_key_source(workload, small_maeri, quiet) == plain
    assert canonical_key_source(workload, small_maeri, {}) == plain
    assert "lenses" not in json.loads(plain)

    sources = {
        lenses: canonical_key_source(
            workload, small_maeri, dict.fromkeys(lenses, True)
        )
        for lenses in (("stalls",), ("fabric",), ("fabric", "stalls"),
                       ("stalls", "fabric"))
    }
    assert json.loads(sources["stalls",])["lenses"] == ["stalls"]
    assert json.loads(sources["fabric",])["lenses"] == ["fabric"]
    assert sources["fabric", "stalls"] == sources["stalls", "fabric"]
    assert len({plain, *sources.values()}) == 4
    assert SimCache.key(workload, small_maeri, {"stalls": True}) == \
        canonical_key(workload, small_maeri, {"stalls": True})
    assert SimCache.key(workload, small_maeri, quiet) == \
        SimCache.key(workload, small_maeri)


# ---- SimCache storage --------------------------------------------------
#: a stored entry must be a layer payload (a disk read that is not one is
#: a miss, see tests/regression/test_cache_entry_validation.py)
_PAYLOAD = {
    "name": "g", "kind": "gemm", "cycles": 7, "macs": 128, "outputs": 16,
    "multiplier_utilization": 0.5, "counters": {"gb_reads": 3},
    "extra": {},
}


def test_cache_memory_roundtrip(small_maeri):
    cache = SimCache()
    key = SimCache.key(_gemm_workload(), small_maeri)
    assert cache.get(key, small_maeri) is None
    cache.put(key, _PAYLOAD, small_maeri)
    assert cache.get(key, small_maeri) == _PAYLOAD
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1,
        "evictions": 0, "disk_bytes": 0,
    }


def test_cache_disk_roundtrip(tmp_path, small_maeri):
    key = SimCache.key(_gemm_workload(), small_maeri)
    SimCache(tmp_path).put(key, _PAYLOAD, small_maeri)
    fresh = SimCache(tmp_path)
    assert fresh.get(key, small_maeri) == _PAYLOAD


def test_cache_disk_roundtrip_of_an_entry_longer_than_one_read(
    tmp_path, small_maeri
):
    # entries spanning several read chunks, one ending on a chunk edge
    chunk = cache_module._READ_CHUNK
    key = SimCache.key(_gemm_workload(), small_maeri)

    def put(note):
        payload = {**_PAYLOAD, "extra": {"note": note}}
        writer = SimCache(tmp_path)
        writer.put(key, payload, small_maeri)
        return payload, os.path.getsize(writer._path(key, small_maeri))

    _, bare = put("")
    for length, size in ((3 * chunk, None), (2 * chunk - bare, 2 * chunk)):
        payload, written = put("x" * length)
        assert written > chunk and size in (None, written)
        assert SimCache(tmp_path).get(key, small_maeri) == payload


def test_cache_corrupt_entry_is_a_miss(tmp_path, small_maeri):
    cache = SimCache(tmp_path)
    key = SimCache.key(_gemm_workload(), small_maeri)
    cache.put(key, _PAYLOAD, small_maeri)
    with open(cache._path(key, small_maeri), "w", encoding="utf-8") as handle:
        handle.write("{not json")
    assert SimCache(tmp_path).get(key, small_maeri) is None


def test_cache_schema_bump_invalidates(tmp_path, small_maeri, monkeypatch):
    cache = SimCache(tmp_path)
    key = SimCache.key(_gemm_workload(), small_maeri)
    cache.put(key, _PAYLOAD, small_maeri)
    monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION",
                        CACHE_SCHEMA_VERSION + 1)
    fresh = SimCache(tmp_path)
    assert fresh.get(key, small_maeri) is None
    # and the schema bump changes the key itself, so new entries never
    # collide with stale ones
    assert SimCache.key(_gemm_workload(), small_maeri) != key


def test_cache_other_config_is_a_miss(tmp_path, small_maeri):
    other = maeri_like(num_ms=64, bandwidth=8)
    cache = SimCache(tmp_path)
    key = SimCache.key(_gemm_workload(), small_maeri)
    cache.put(key, _PAYLOAD, small_maeri)
    assert SimCache(tmp_path).get(key, other) is None


# ---- the runner --------------------------------------------------------
def _run_serial(config, model, x):
    acc = Accelerator(config)
    simulate(model, acc)
    out = model(x)
    detach_context(model)
    return out, acc.report


def test_runner_serial_path_matches_classic_run(small_maeri):
    model = _tiny_model()
    x = _tiny_input()
    ref_out, ref_report = _run_serial(small_maeri, model, x)
    result = ParallelModelRunner(small_maeri, jobs=1).run_model(model, x)
    assert np.array_equal(result.output, ref_out)
    assert result.report.total_cycles == ref_report.total_cycles
    assert [l.name for l in result.report.layers] == \
        [l.name for l in ref_report.layers]
    assert result.fallbacks == 0 and result.cache_hits == 0


def test_runner_cache_hits_preserve_results(small_maeri):
    model = _tiny_model()
    x = _tiny_input()
    cache = SimCache()
    cold = ParallelModelRunner(small_maeri, cache=cache).run_model(model, x)
    warm = ParallelModelRunner(small_maeri, cache=cache).run_model(model, x)
    assert warm.cache_hits == warm.layers
    assert warm.simulated == 0
    assert warm.report.total_cycles == cold.report.total_cycles
    assert [l.counters.as_dict() for l in warm.report.layers] == \
        [l.counters.as_dict() for l in cold.report.layers]


def test_runner_deduplicates_repeated_shapes(small_maeri):
    rng = np.random.default_rng(3)
    model = Sequential(
        Conv2d(2, 2, 3, padding=1, name="c1", rng=rng),
        Conv2d(2, 2, 3, padding=1, name="c2", rng=rng),
        Conv2d(2, 2, 3, padding=1, name="c3", rng=rng),
    )
    x = _tiny_input()
    cache = SimCache()
    result = ParallelModelRunner(small_maeri, cache=cache).run_model(model, x)
    assert result.layers == 3
    assert result.simulated == 1
    assert result.deduplicated == 2
    cycles = [l.cycles for l in result.report.layers]
    assert cycles[0] == cycles[1] == cycles[2]
    names = [l.name for l in result.report.layers]
    assert len(set(names)) == 3  # shared timing, per-layer names


def test_runner_deduplicates_repeated_shapes_without_a_cache(small_maeri):
    """Folding repeated shapes needs the *key*, not a cache object."""
    rng = np.random.default_rng(3)
    model = Sequential(
        Conv2d(2, 2, 3, padding=1, name="c1", rng=rng),
        Conv2d(2, 2, 3, padding=1, name="c2", rng=rng),
        Conv2d(2, 2, 3, padding=1, name="c3", rng=rng),
    )
    x = _tiny_input()
    ref_out, ref_report = _run_serial(small_maeri, model, x)
    result = ParallelModelRunner(small_maeri, cache=None).run_model(model, x)
    assert (result.layers, result.simulated, result.deduplicated) == (3, 1, 2)
    assert result.cache_hits == 0
    assert np.array_equal(result.output, ref_out)
    assert [l.to_payload() for l in result.report.layers] == \
        [l.to_payload() for l in ref_report.layers]

    # metrics samples sit on an absolute cycle grid: with the recorder on
    # and no cache, nothing is folded; trace records move with the layer,
    # so a traced run folds like a ledger-carrying one
    from repro.observability import Observability

    detailed = ParallelModelRunner(
        small_maeri, observability=Observability.create(metrics_every=16)
    ).run_model(model, x)
    assert (detailed.simulated, detailed.deduplicated) == (3, 0)
    for lens in ({"trace": True}, {"stalls": True}):
        folded = ParallelModelRunner(
            small_maeri, observability=Observability.create(**lens)
        ).run_model(model, x)
        assert (folded.simulated, folded.deduplicated) == (1, 2)


def test_runner_real_pool_matches_serial(small_maeri):
    """``jobs=2`` times every layer in this process: no child process,
    and what a serial run gives."""
    model = _tiny_model()
    x = _tiny_input()
    ref_out, ref_report = _run_serial(small_maeri, model, x)
    result = ParallelModelRunner(small_maeri, jobs=2).run_model(model, x)
    assert multiprocessing.active_children() == []
    assert result.fallbacks == 0
    assert np.array_equal(result.output, ref_out)
    assert result.report.total_cycles == ref_report.total_cycles
    assert [l.counters.as_dict() for l in result.report.layers] == \
        [l.counters.as_dict() for l in ref_report.layers]


def test_runner_metadata_accounting(small_maeri):
    model = _tiny_model()
    x = _tiny_input()
    result = ParallelModelRunner(small_maeri, jobs=1).run_model(model, x)
    meta = result.report.metadata
    assert meta["parallel_jobs"] == 1
    assert meta["parallel_layers"] == 4
    assert meta["parallel_simulated"] == 4
    assert meta["parallel_fallbacks"] == 0


def test_runner_clocks_each_stage_once(small_maeri):
    """Telemetry and the result get the same reading, not two."""
    from repro.observability.telemetry import enable_telemetry, telemetry

    enable_telemetry(True)
    telemetry().reset()
    try:
        result = ParallelModelRunner(small_maeri).run_model(
            _tiny_model(), _tiny_input()
        )
        stages = telemetry().get("stonne_stage_seconds")
        assert list(result.stage_seconds) == ["record", "simulate", "merge"]
        for stage, seconds in result.stage_seconds.items():
            assert seconds > 0.0
            assert stages.count(stage=stage) == 1
            assert stages.sum(stage=stage) == seconds
    finally:
        enable_telemetry(False)
        telemetry().reset()


def test_runner_sparse_model_never_caches(small_sigma):
    model = _tiny_model()
    x = np.abs(_tiny_input())
    cache = SimCache()
    runner = ParallelModelRunner(small_sigma, cache=cache)
    first = runner.run_model(model, x)
    second = runner.run_model(model, x)
    assert first.cache_hits == second.cache_hits == 0
    assert len(cache) == 0
    assert first.report.total_cycles == second.report.total_cycles


# ---- jobs is validated before anything runs ----------------------------
class _PoisonedModel(Module):
    def forward(self, x):
        raise AssertionError("the record pass ran before jobs was checked")


@pytest.mark.parametrize("jobs", [2.5, "2", [2], 2.0])
def test_non_integer_jobs_is_a_configuration_error(jobs, small_maeri):
    model, x = _PoisonedModel(), _tiny_input()
    with pytest.raises(ConfigurationError, match="jobs") as raised:
        ParallelModelRunner(small_maeri, jobs=jobs).run_model(model, x)
    assert repr(jobs) in str(raised.value)
    with pytest.raises(ConfigurationError, match="jobs"):
        simulate_parallel(model, Accelerator(small_maeri), x, jobs=jobs)
    with pytest.raises(ConfigurationError, match="jobs"):
        StonneInstance(small_maeri).run_model(model, x, jobs=jobs)


def test_integer_like_jobs_are_accepted(small_maeri):
    assert ParallelModelRunner(small_maeri, jobs=np.int64(3)).jobs == 3
    assert type(ParallelModelRunner(small_maeri, jobs=np.int64(3)).jobs) is int
    assert ParallelModelRunner(small_maeri, jobs=None).jobs == \
        (os.cpu_count() or 1)
    assert ParallelModelRunner(small_maeri, jobs=0).jobs == 1
    assert ParallelModelRunner(small_maeri, jobs=-3).jobs == 1
