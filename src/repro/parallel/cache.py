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
either invalidates without any deletion logic. An entry is read as bytes
straight into ``json.loads`` and is a hit only if its schema and config
hash match and its payload has every field
:meth:`~repro.engine.stats.LayerReport.from_payload` reads, with the type
:meth:`~repro.engine.stats.LayerReport.to_payload` writes; anything else
(absent, truncated, malformed) is a miss, re-simulated and overwritten by
``put``.

A key is written out from one hashable signature of the workload
(config hash, kind, operand shapes and dtype names, the JSON text of
each mapping param, lens names), the only place the workload is read;
:meth:`SimCache.keys_of` writes and digests each distinct signature of
a run once, since a model repeats its layer shapes. The config hash itself is computed once
per config object (:func:`~repro.observability.provenance.config_hash`).

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
import operator
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.hardware import HardwareConfig
from repro.engine.stats import LayerReport
from repro.engine.workload import (
    DATA_DEPENDENT_KINDS, MAPPING_PARAMS, LayerWorkload, OperandSpec,
    dtype_name,
)
from repro.errors import ConfigurationError
from repro.observability.provenance import config_hash
from repro.observability.telemetry.facade import telemetry

#: bump when the key layout or the stored payload schema changes — old
#: on-disk entries become unreachable automatically (v2: HardwareConfig
#: grew ``engine_mode``, which flows into the config hash)
CACHE_SCHEMA_VERSION = 2

#: whether ``os.utime`` takes the descriptor of the entry just read
#: (no second path lookup) on this platform
_TOUCH_BY_FD = os.utime in os.supports_fd

#: bytes asked of each ``os.read`` of an entry: an entry is a few kB, so
#: one read takes it whole and a longer one reads on
_READ_CHUNK = 1 << 16

_INT_ONLY = frozenset({int})

#: the lenses whose ledgers ride in a stored payload's ``extra`` (trace
#: events and metrics samples never reach the cache)
_PAYLOAD_LENSES = ("fabric", "stalls")


def cacheable(workload: LayerWorkload, config: HardwareConfig) -> bool:
    """Whether this (workload, hardware) pair has value-independent timing."""
    if workload.data_dependent:
        return False
    if workload.kind in DATA_DEPENDENT_KINDS:
        return False
    if config.is_sparse:
        # conv/GEMM on a sparse fabric is timed by the sparse controller
        return False
    return workload.kind in MAPPING_PARAMS


#: how ``json.dumps`` writes a string (``ensure_ascii``, quotes included)
_JSON_STRING = json.encoder.encode_basestring_ascii

_INF = float("inf")

#: per kind, ``"<name>": `` of each mapping parameter in sorted order:
#: the order ``sort_keys`` writes them in, and the order of a
#: signature's parameter texts
_PARAM_LABELS = {
    kind: tuple(f"{_JSON_STRING(name)}: " for name in sorted(names))
    for kind, names in MAPPING_PARAMS.items()
}
_SORTED_PARAMS = {
    kind: tuple(sorted(names)) for kind, names in MAPPING_PARAMS.items()
}

#: dataclass type → (``"<field>": ``, field name) in sorted field order
_FIELD_LABELS: Dict[type, Tuple[Tuple[str, str], ...]] = {}


def _json_text(value: Any) -> str:
    """What ``json.dumps(value)`` writes for one mapping parameter, with a
    dataclass (a tile) written as its ``dataclasses.asdict`` with sorted
    keys. Values that compare equal but serialise apart (``1`` /
    ``True`` / ``1.0``, ``0.0`` / ``-0.0``) get their own texts. A value
    the key cannot hold raises ``TypeError``, and so does a dataclass
    field holding a container."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _JSON_STRING(value)
    if isinstance(value, int):  # an int subclass: JSON writes its int repr
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    labels = _FIELD_LABELS.get(kind)
    if labels is None:
        if not dataclasses.is_dataclass(kind):
            raise TypeError(
                f"cache key parameter of type {kind.__name__} is not canonical"
            )
        labels = _FIELD_LABELS[kind] = tuple(
            (f"{_JSON_STRING(name)}: ", name)
            for name in sorted(field.name for field in dataclasses.fields(kind))
        )
    fields = ", ".join(
        label + _json_text(getattr(value, name)) for label, name in labels
    )
    return f"{{{fields}}}"


def _signature(
    workload: LayerWorkload,
    config: HardwareConfig,
    lenses: Optional[Dict[str, Any]],
) -> Tuple:
    """Everything a cache key says, as one hashable value: the config
    hash, the kind, each operand's (name, shape, dtype), the JSON text of
    each mapping parameter of the kind and the payload lenses that are
    on. It is the only reader of the workload; the key text is rendered
    from it alone (:func:`_render`), so equal signatures are equal keys."""
    operands = []
    for name in sorted(workload.operands):
        value = workload.operands[name]
        # an array and its OperandSpec (a timing view's operand) read the
        # same here, so a view has its workload's key character for character
        if type(value) is np.ndarray:
            operands.append((name, value.shape, dtype_name(value.dtype)))
            continue
        spec = OperandSpec.of(value)
        shape = tuple(spec.shape)
        if not _INT_ONLY.issuperset(map(type, shape)):
            raise TypeError(
                f"operand {name!r} has a shape of non-int extents: {shape!r}"
            )
        operands.append((name, shape, spec.dtype))
    params = workload.params
    return (
        config_hash(config),
        workload.kind,
        tuple(operands),
        tuple(_json_text(params.get(name))
              for name in _SORTED_PARAMS[workload.kind]),
        tuple(name for name in _PAYLOAD_LENSES if lenses and lenses.get(name)),
    )


def _render(signature: Tuple) -> str:
    """The canonical key text of a signature, written out directly: the
    bytes ``json.dumps(record, sort_keys=True)`` gives for the record a
    cache key digests (``tests/property/test_prop_cache_key_oracle.py``
    keeps that builder as the oracle)."""
    config, kind, operands, params, ledgers = signature
    operand_text = ", ".join(
        f'{_JSON_STRING(name)}: {{"dtype": {_JSON_STRING(dtype)}, '
        f'"shape": [{", ".join(map(str, shape))}]}}'
        for name, shape, dtype in operands
    )
    param_text = ", ".join(map(str.__add__, _PARAM_LABELS[kind], params))
    lens_text = (
        f'"lenses": [{", ".join(map(_JSON_STRING, ledgers))}], '
        if ledgers else ""
    )
    return (
        f'{{"config": {_JSON_STRING(config)}, "kind": {_JSON_STRING(kind)}, '
        f'{lens_text}"operands": {{{operand_text}}}, '
        f'"params": {{{param_text}}}, "schema": {CACHE_SCHEMA_VERSION}}}'
    )


def _key_of(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


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
    return _render(_signature(workload, config, lenses))


def canonical_key(
    workload: LayerWorkload,
    config: HardwareConfig,
    lenses: Optional[Dict[str, Any]] = None,
) -> str:
    """SHA-256 digest of :func:`canonical_key_source`."""
    return _key_of(canonical_key_source(workload, config, lenses))


class SimCache:
    """Memoizes per-layer simulation payloads, optionally on disk."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_bytes is not None:
            try:
                max_bytes = operator.index(max_bytes)
            except TypeError:
                raise ConfigurationError(
                    f"max_bytes must be an integer number of bytes, "
                    f"got {max_bytes!r}"
                ) from None
            if max_bytes < 1:
                raise ConfigurationError(
                    f"max_bytes must be at least 1 when set, got {max_bytes}"
                )
        self.directory = Path(directory) if directory is not None else None
        #: ``directory`` as a string, the prefix of every entry path
        self._root = str(self.directory) if directory is not None else None
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
        return _key_of(_render(_signature(workload, config, lenses)))

    @staticmethod
    def keys_of(
        workloads: List[LayerWorkload],
        config: HardwareConfig,
        lenses: Optional[Dict[str, Any]] = None,
    ) -> List[Optional[str]]:
        """:meth:`key` of each workload, rendered and digested once per
        distinct signature among them (a model repeats layer shapes)."""
        derived: Dict[Tuple, str] = {}
        keys: List[Optional[str]] = []
        for workload in workloads:
            if not cacheable(workload, config):
                keys.append(None)
                continue
            signature = _signature(workload, config, lenses)
            key = derived.get(signature)
            if key is None:
                key = derived[signature] = _key_of(_render(signature))
            keys.append(key)
        return keys

    # ---- storage ------------------------------------------------------
    def _path(self, key: str, config: HardwareConfig) -> str:
        assert self._root is not None
        return (
            f"{self._root}/v{CACHE_SCHEMA_VERSION}/{config_hash(config)}"
            f"/{key}.json"
        )

    def _read(self, key: str, config: HardwareConfig) -> Optional[Dict]:
        """The payload stored on disk under ``key``; ``None`` when the
        entry is absent, unreadable, of another schema or config, or
        holds anything :meth:`LayerReport.from_payload` could not rebuild
        exactly (a miss: the layer re-simulates and ``put`` rewrites it)."""
        path = self._path(key, config)
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return None  # absent: a miss
        try:
            # a short read is the end of a regular file; anywhere else it
            # leaves a cut-off text, which does not parse: a miss
            chunks = [os.read(fd, _READ_CHUNK)]
            while len(chunks[-1]) == _READ_CHUNK:
                chunks.append(os.read(fd, _READ_CHUNK))
            # decoded here: json.loads would sniff the encoding of bytes
            stored = json.loads(b"".join(chunks).decode("utf-8"))
            if (
                type(stored) is not dict
                or stored.get("schema") != CACHE_SCHEMA_VERSION
                or stored.get("config_hash") != config_hash(config)
            ):
                return None
            payload = stored.get("payload")
            if not LayerReport.is_payload(payload):
                return None
            # LRU touch: disk hits refresh recency
            os.utime(fd if _TOUCH_BY_FD else path)
        except (OSError, ValueError):
            return None  # unreadable or corrupt: a miss
        finally:
            os.close(fd)
        self._memory[key] = payload
        return payload

    def get(self, key: str, config: HardwareConfig) -> Optional[Dict]:
        """Look up a payload; counts a hit or a miss."""
        entry = self._memory.get(key)
        if entry is None and self._root is not None:
            entry = self._read(key, config)
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
        if self._root is None:
            return
        self._ensure_disk_scan()
        path = self._path(key, config)
        data = json.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "key": key,
            "payload": payload,
        }, sort_keys=True).encode("utf-8")
        try:
            previous = os.stat(path).st_size
        except OSError:
            previous = 0
        tmp = f"{path}.tmp"
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:  # the shard's first entry
            os.makedirs(os.path.dirname(path), exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(data)
        os.replace(tmp, path)
        shard = self._shard(config)
        self._disk_bytes += len(data) - previous
        self._shard_bytes[shard] = (
            self._shard_bytes.get(shard, 0) + len(data) - previous
        )
        if self.max_bytes is not None:
            self._evict_to_fit()
        self._publish_shard_bytes()

    def __len__(self) -> int:
        return len(self._memory)

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
