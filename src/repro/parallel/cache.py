"""The simulation-result cache.

Dense-path timing is *value-independent*: the cycles, activity counters
and utilization of a conv/GEMM/maxpool depend only on the layer geometry,
the tile mapping and the hardware configuration — never on what numbers
flow through the multipliers (pinned by the differential suite). So a
(layer descriptor, tile, hardware config) triple fully determines the
:class:`~repro.engine.stats.LayerReport`, and recomputing it for every
identically shaped layer — or every re-run of an experiment sweep — is
pure waste.

:class:`SimCache` memoizes those reports under a canonical SHA-256 key.
Data-dependent paths are **refused by construction**:

- SpMM / any sparse-controller timing (round packing reads the non-zero
  structure of the stationary operand);
- SNAPEA early termination (cut-offs read the running partial sums).

The stall and fabric ledgers in a dense payload's ``extra`` are as
value-independent as its cycles, so attributed runs are cached too —
under keys that name the lenses that were on (a lens-free key names none).

Entries persist to disk (optional) under
``<dir>/v<schema>/<config-hash>/<key>.json``; both the schema version and
the provenance config hash are part of the key *and* the path, so bumping
either invalidates without any deletion logic.

A disk cache can be bounded with ``max_bytes``: when a ``put`` pushes
the on-disk footprint over the limit, least-recently-used entries
(oldest mtime; ``get`` touches mtime) are deleted until it fits.
Eviction only ever drops the *disk* copy — an evicted key simply
misses and re-simulates, so correctness is untouched. Hits, misses,
evictions and bytes-on-disk are reported per config-hash shard through
:mod:`repro.observability.telemetry` when telemetry is enabled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.config.hardware import HardwareConfig
from repro.observability.provenance import config_hash
from repro.observability.telemetry.facade import telemetry
from repro.engine.workload import (
    DATA_DEPENDENT_KINDS, LayerWorkload, OperandSpec,
)

#: bump when the key layout or the stored payload schema changes — old
#: on-disk entries become unreachable automatically (v2: HardwareConfig
#: grew ``engine_mode``, which flows into the config hash)
CACHE_SCHEMA_VERSION = 2

#: params that describe the *mapping*, per kind — anything else a
#: workload carries (round_builder objects, flags) is not part of the key
_KEY_PARAMS = {
    "conv": ("stride", "padding", "groups", "tile"),
    "gemm": ("tile",),
    "maxpool": ("pool", "stride"),
}

#: the lenses whose ledgers ride in a stored payload's ``extra`` (trace
#: events and metrics samples never reach the cache)
_PAYLOAD_LENSES = ("fabric", "stalls")

#: How every config-dataclass field reaches the canonical key. The
#: CACHE-KEY lint pass diffs these manifests against the *actual* fields
#: of the classes in ``repro.config``: adding a field without deciding
#: its cache-key fate here fails ``make lint`` instead of becoming a
#: stale-cache bug. When coverage genuinely changes, bump
#: ``CACHE_SCHEMA_VERSION`` in the same commit.
KEY_COVERED_FIELDS = {
    # config_hash() digests dataclasses.asdict(config), so every
    # HardwareConfig field — including the nested DramConfig — flows
    # into the key through the "config" entry of canonical_key_source.
    "HardwareConfig": {
        "num_ms": "via config_hash (asdict digests all fields)",
        "dn_bandwidth": "via config_hash",
        "rn_bandwidth": "via config_hash",
        "controller": "via config_hash",
        "distribution": "via config_hash",
        "multiplier": "via config_hash",
        "reduction": "via config_hash",
        "dataflow": "via config_hash",
        "sparse_format": "via config_hash",
        "dtype": "via config_hash",
        "gb_size_kb": "via config_hash",
        "gb_banks": "via config_hash",
        "ms_fifo_depth": "via config_hash",
        "dn_fifo_depth": "via config_hash",
        "rn_fifo_depth": "via config_hash",
        "accumulation_buffer": "via config_hash",
        "engine_mode": (
            "via config_hash (over-keys on purpose: modes are proven "
            "byte-identical, but a cached cycle-mode entry must never "
            "mask a vector-kernel regression)"
        ),
        "clock_ghz": "via config_hash",
        "technology_nm": "via config_hash",
        "dram": "via config_hash (asdict recurses into DramConfig)",
        "name": "via config_hash (over-keys: renaming re-simulates)",
    },
    "DramConfig": {
        "bandwidth_gbps": "via config_hash through HardwareConfig.dram",
        "size_mb": "via config_hash through HardwareConfig.dram",
        "access_latency_cycles": "via config_hash through HardwareConfig.dram",
        "row_buffer_bytes": "via config_hash through HardwareConfig.dram",
        "row_hit_latency_cycles": "via config_hash through HardwareConfig.dram",
    },
    # the tile travels in params["tile"]; _jsonable_param asdicts it, so
    # all eight dimensions land in the key
    "TileConfig": {
        "t_r": "via params tile asdict",
        "t_s": "via params tile asdict",
        "t_c": "via params tile asdict",
        "t_g": "via params tile asdict",
        "t_k": "via params tile asdict",
        "t_n": "via params tile asdict",
        "t_x": "via params tile asdict",
        "t_y": "via params tile asdict",
    },
    # layer geometry reaches the key through the operand *shapes* the
    # workload carries, and the mapping through _KEY_PARAMS
    "ConvLayerSpec": {
        "r": "weights operand shape (k*g, c, r, s)",
        "s": "weights operand shape",
        "c": "weights and input operand shapes",
        "k": "weights operand shape",
        "g": "params groups and weights shape",
        "n": "input operand shape (n, c*g, x, y)",
        "x": "input operand shape",
        "y": "input operand shape",
        "stride": "params stride",
    },
    "GemmSpec": {
        "m": "stationary operand shape (m, k)",
        "n": "streamed operand shape (k, n)",
        "k": "both operand shapes",
    },
}

KEY_EXEMPT_FIELDS = {
    "ConvLayerSpec": {
        "kind": (
            "descriptive tag only; timing is fully determined by the "
            "geometry and params already in the key"
        ),
        "name": (
            "the key is deliberately name-free so identically shaped "
            "layers share one entry (from_payload re-stamps the name)"
        ),
    },
    "GemmSpec": {
        "name": "deliberately name-free, as for ConvLayerSpec.name",
    },
}


def cacheable(workload: LayerWorkload, config: HardwareConfig) -> bool:
    """Whether this (workload, hardware) pair has value-independent timing."""
    if workload.data_dependent:
        return False
    if workload.kind in DATA_DEPENDENT_KINDS:
        return False
    if config.is_sparse:
        # conv/GEMM on a sparse fabric is timed by the sparse controller
        return False
    return workload.kind in _KEY_PARAMS


def _jsonable_param(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    raise TypeError(
        f"cache key parameter of type {type(value).__name__} is not canonical"
    )


def canonical_key_source(
    workload: LayerWorkload,
    config: HardwareConfig,
    lenses: Optional[Dict[str, Any]] = None,
) -> str:
    """The canonical JSON text a cache key digests.

    Everything that can change the stored payload is in here — and
    nothing else: layer kind, operand shapes and dtypes, the mapping
    parameters for the kind, the cache schema version, the hardware
    config hash and, when any is on, the payload-changing lenses of
    ``lenses`` (:meth:`Observability.create` keyword arguments). Layer
    *names* and operand *values* are deliberately absent, and a lens-free
    key has no lens entry at all.
    """
    if not cacheable(workload, config):
        raise ValueError(
            f"workload {workload.name!r} ({workload.kind}) is data-dependent "
            "and has no cache key"
        )
    operands = {}
    for key in sorted(workload.operands):
        # an array and its OperandSpec (a timing view's operand) read the
        # same here, so a view has its workload's key character for character
        spec = OperandSpec.of(workload.operands[key])
        operands[key] = {"shape": list(spec.shape), "dtype": spec.dtype}
    record = {
        "schema": CACHE_SCHEMA_VERSION,
        "config": config_hash(config),
        "kind": workload.kind,
        "operands": operands,
        "params": {
            name: _jsonable_param(workload.params.get(name))
            for name in _KEY_PARAMS[workload.kind]
        },
    }
    ledgers = [name for name in _PAYLOAD_LENSES if (lenses or {}).get(name)]
    if ledgers:
        record["lenses"] = ledgers
    return json.dumps(record, sort_keys=True)


def canonical_key(
    workload: LayerWorkload,
    config: HardwareConfig,
    lenses: Optional[Dict[str, Any]] = None,
) -> str:
    """SHA-256 digest of :func:`canonical_key_source`."""
    return hashlib.sha256(
        canonical_key_source(workload, config, lenses).encode("utf-8")
    ).hexdigest()


class SimCache:
    """Memoizes per-layer simulation payloads, optionally on disk."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when set")
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max_bytes
        self._memory: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._disk_scanned = False
        self._disk_bytes = 0
        self._shard_bytes: Dict[str, int] = {}

    # ---- telemetry ----------------------------------------------------
    @staticmethod
    def _shard(config: HardwareConfig) -> str:
        return config_hash(config)[:12]

    def _publish_shard_bytes(self) -> None:
        gauge = telemetry().gauge(
            "stonne_simcache_bytes", "Bytes on disk per cache shard"
        )
        if not gauge.enabled:
            return
        for shard, size in sorted(self._shard_bytes.items()):
            gauge.set(float(size), shard=shard)
        gauge.set(float(self._disk_bytes), shard="all")

    # ---- disk accounting ----------------------------------------------
    def _entry_files(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every on-disk entry, oldest first."""
        assert self.directory is not None
        files: List[Tuple[float, int, Path]] = []
        root = self.directory / f"v{CACHE_SCHEMA_VERSION}"
        for path in sorted(root.glob("*/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            files.append((stat.st_mtime, stat.st_size, path))
        files.sort(key=lambda item: (item[0], str(item[2])))
        return files

    def _ensure_disk_scan(self) -> None:
        """Account entries that predate this process (lazy, once)."""
        if self._disk_scanned or self.directory is None:
            self._disk_scanned = True
            return
        self._disk_scanned = True
        self._disk_bytes = 0
        self._shard_bytes = {}
        for _, size, path in self._entry_files():
            shard = path.parent.name[:12]
            self._disk_bytes += size
            self._shard_bytes[shard] = self._shard_bytes.get(shard, 0) + size

    def _evict_to_fit(self) -> None:
        """Delete LRU entries (oldest mtime) until the cap is honored."""
        assert self.directory is not None and self.max_bytes is not None
        if self._disk_bytes <= self.max_bytes:
            return
        counter = telemetry().counter(
            "stonne_simcache_evictions_total",
            "Disk cache entries evicted by the max_bytes LRU policy",
        )
        files = self._entry_files()
        for _, size, path in files[:-1]:  # never evict the newest entry
            if self._disk_bytes <= self.max_bytes:
                break
            shard = path.parent.name[:12]
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            self._disk_bytes -= size
            self._shard_bytes[shard] = max(
                self._shard_bytes.get(shard, 0) - size, 0
            )
            counter.inc(shard=shard)

    # ---- keying -------------------------------------------------------
    @staticmethod
    def cacheable(workload: LayerWorkload, config: HardwareConfig) -> bool:
        return cacheable(workload, config)

    @staticmethod
    def key(
        workload: LayerWorkload,
        config: HardwareConfig,
        lenses: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """The workload's cache key under the given lens set, or ``None``
        when uncacheable."""
        if not cacheable(workload, config):
            return None
        return canonical_key(workload, config, lenses)

    # ---- storage ------------------------------------------------------
    def _path(self, key: str, config: HardwareConfig) -> Path:
        assert self.directory is not None
        return (
            self.directory / f"v{CACHE_SCHEMA_VERSION}"
            / config_hash(config) / f"{key}.json"
        )

    def get(self, key: str, config: HardwareConfig) -> Optional[Dict]:
        """Look up a payload; counts a hit or a miss."""
        entry = self._memory.get(key)
        if entry is None and self.directory is not None:
            path = self._path(key, config)
            try:
                stored = json.loads(path.read_text(encoding="utf-8"))
                if (
                    stored.get("schema") == CACHE_SCHEMA_VERSION
                    and stored.get("config_hash") == config_hash(config)
                ):
                    entry = stored["payload"]
                    self._memory[key] = entry
                    os.utime(path)  # LRU touch: disk hits refresh recency
            except (OSError, ValueError, KeyError):
                entry = None  # absent or corrupt: treat as a miss
        registry = telemetry()
        if entry is None:
            self.misses += 1
            registry.counter(
                "stonne_simcache_misses_total",
                "Simulation cache misses per config-hash shard",
            ).inc(shard=self._shard(config))
            return None
        self.hits += 1
        registry.counter(
            "stonne_simcache_hits_total",
            "Simulation cache hits per config-hash shard",
        ).inc(shard=self._shard(config))
        return entry

    def put(self, key: str, payload: Dict, config: HardwareConfig) -> None:
        self._memory[key] = payload
        if self.directory is None:
            return
        self._ensure_disk_scan()
        path = self._path(key, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": CACHE_SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "key": key,
            "payload": payload,
        }
        tmp = path.with_suffix(".json.tmp")
        try:
            previous = path.stat().st_size
        except OSError:
            previous = 0
        tmp.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        shard = self._shard(config)
        size = path.stat().st_size
        self._disk_bytes += size - previous
        self._shard_bytes[shard] = (
            self._shard_bytes.get(shard, 0) + size - previous
        )
        if self.max_bytes is not None:
            self._evict_to_fit()
        self._publish_shard_bytes()

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries survive)."""
        self._memory.clear()

    def disk_bytes(self) -> int:
        """Bytes currently on disk (0 for a memory-only cache)."""
        self._ensure_disk_scan()
        return self._disk_bytes

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_bytes": self.disk_bytes(),
        }
