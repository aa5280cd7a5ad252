"""SimCache max_bytes LRU eviction policy and its telemetry counters."""

import os

import numpy as np
import pytest

from repro.config import tpu_like
from repro.errors import ConfigurationError
from repro.observability.telemetry.facade import enable_telemetry, telemetry
from repro.parallel import SimCache

CONFIG = tpu_like(num_pes=16)


def _payload(tag):
    # a layer payload (a disk read of anything else is a miss), padded
    return {
        "name": tag, "kind": "gemm", "cycles": 1, "macs": 1, "outputs": 1,
        "multiplier_utilization": 0.0, "counters": {},
        "extra": {"pad": "x" * 512},
    }


def _fill(directory, keys):
    """Seed a disk cache with one entry per key, mtimes strictly ordered."""
    cache = SimCache(directory)
    for key in keys:
        cache.put(key, _payload(key), CONFIG)
    for offset, key in enumerate(keys):
        path = cache._path(key, CONFIG)
        stamp = 1_000_000 + offset * 100
        os.utime(path, (stamp, stamp))
    return cache


def test_max_bytes_must_be_positive(tmp_path):
    with pytest.raises(ConfigurationError, match="max_bytes"):
        SimCache(tmp_path, max_bytes=0)
    with pytest.raises(ConfigurationError, match="max_bytes"):
        SimCache(tmp_path, max_bytes=-5)


@pytest.mark.parametrize("max_bytes", ["10", 1.5])
def test_max_bytes_must_be_an_integer(tmp_path, max_bytes):
    with pytest.raises(ConfigurationError, match="max_bytes"):
        SimCache(tmp_path, max_bytes=max_bytes)


def test_max_bytes_takes_integer_likes(tmp_path):
    assert SimCache(tmp_path, max_bytes=np.int64(4096)).max_bytes == 4096


def test_unbounded_cache_never_evicts(tmp_path):
    cache = _fill(tmp_path, ["k1", "k2", "k3"])
    assert cache.evictions == 0
    assert cache.disk_bytes() > 0
    assert len(list(tmp_path.rglob("*.json"))) == 3


def test_put_evicts_oldest_first(tmp_path):
    _fill(tmp_path, ["k1", "k2", "k3"])
    entry_size = SimCache(tmp_path).disk_bytes() // 3

    # a fresh bounded cache accounts the preexisting entries on first put
    cache = SimCache(tmp_path, max_bytes=int(entry_size * 2.5))
    cache.put("k4", _payload("k4"), CONFIG)
    surviving = {p.stem for p in tmp_path.rglob("*.json")}
    # k1 and k2 (oldest mtimes) go; k3 and the fresh k4 fit under the cap
    assert surviving == {"k3", "k4"}
    assert cache.evictions == 2
    assert cache.disk_bytes() <= cache.max_bytes
    assert cache.stats()["evictions"] == 2


def test_get_refreshes_recency(tmp_path):
    _fill(tmp_path, ["k1", "k2", "k3"])
    entry_size = SimCache(tmp_path).disk_bytes() // 3

    cache = SimCache(tmp_path, max_bytes=int(entry_size * 2.5))
    # touching k1 moves it from oldest to newest...
    assert cache.get("k1", CONFIG) is not None
    cache.put("k4", _payload("k4"), CONFIG)
    surviving = {p.stem for p in tmp_path.rglob("*.json")}
    # ...so eviction now takes k2 and k3 instead
    assert surviving == {"k1", "k4"}


def test_newest_entry_is_never_evicted(tmp_path):
    # a cap smaller than a single entry still keeps the latest put
    cache = SimCache(tmp_path, max_bytes=1)
    cache.put("only", _payload("only"), CONFIG)
    assert [p.stem for p in tmp_path.rglob("*.json")] == ["only"]
    assert cache.evictions == 0
    cache.put("next", _payload("next"), CONFIG)
    surviving = {p.stem for p in tmp_path.rglob("*.json")}
    assert surviving == {"next"}
    assert cache.evictions == 1


def test_eviction_only_drops_disk_not_correctness(tmp_path):
    cache = SimCache(tmp_path, max_bytes=1)
    cache.put("a", _payload("a"), CONFIG)
    cache.put("b", _payload("b"), CONFIG)
    # the in-memory layer still serves the evicted key in this process
    assert cache.get("a", CONFIG) == _payload("a")
    # a fresh cache sees a clean miss for it — just re-simulates
    assert SimCache(tmp_path).get("a", CONFIG) is None


def test_eviction_and_hit_miss_counters(tmp_path):
    registry = enable_telemetry(True)
    registry.reset()
    try:
        _fill(tmp_path, ["k1", "k2", "k3"])
        entry_size = SimCache(tmp_path).disk_bytes() // 3
        cache = SimCache(tmp_path, max_bytes=int(entry_size * 1.5))
        cache.get("missing", CONFIG)
        cache.put("k4", _payload("k4"), CONFIG)

        shard = SimCache._shard(CONFIG)
        evicted = registry.get("stonne_simcache_evictions_total")
        assert evicted is not None
        assert evicted.value(shard=shard) == cache.evictions > 0
        misses = registry.get("stonne_simcache_misses_total")
        assert misses.value(shard=shard) == 1.0
        gauge = registry.get("stonne_simcache_bytes")
        assert gauge.value(shard="all") == float(cache.disk_bytes())
        assert gauge.value(shard=shard) == float(cache.disk_bytes())
    finally:
        enable_telemetry(False)
        telemetry().reset()
