"""Run provenance: who/what/when metadata stamped on every report.

A statistics file that cannot be traced back to the exact configuration,
package version and seed that produced it is a liability once results
are compared across machines or months. :func:`run_metadata` collects
the reproducibility-relevant facts; :func:`config_hash` gives a stable
short digest of a :class:`~repro.config.hardware.HardwareConfig` so two
reports can be matched ("same hardware point?") without diffing every
field.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import operator
import platform
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Optional, Tuple

from repro.config.hardware import DramConfig, HardwareConfig
from repro.version import __version__


def _jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


#: where :func:`config_hash` keeps a config's digest on the instance
_DIGEST_ATTRIBUTE = "_config_hash"


def config_digest_source(config: HardwareConfig) -> str:
    """The canonical JSON text the config hash is computed over."""
    return json.dumps(_jsonable(config), sort_keys=True)


def _field_reader(cls: type) -> Callable[[Any], Tuple]:
    """A reader of ``cls``'s field values, in field order, as one tuple."""
    return operator.attrgetter(*(item.name for item in dataclasses.fields(cls)))


_HARDWARE_FIELDS = _field_reader(HardwareConfig)
_DRAM_FIELDS = _field_reader(DramConfig)


def _field_types(config: HardwareConfig) -> Tuple:
    """The type of each field value of ``config`` and of its DRAM config:
    ``2 == 2.0`` and ``True == 1`` compare and hash alike, but
    :func:`config_digest_source` writes them apart."""
    return (
        tuple(map(type, _HARDWARE_FIELDS(config))),
        tuple(map(type, _DRAM_FIELDS(config.dram))),
    )


@functools.lru_cache(maxsize=256)
def _digest(config: HardwareConfig, field_types: Tuple) -> str:
    """The digest of ``config``'s fields, shared by configs whose fields
    are equal and of the same types (``field_types`` is part of the memo
    key, so a digest never depends on which equal config was hashed
    first)."""
    return hashlib.sha256(
        config_digest_source(config).encode("utf-8")
    ).hexdigest()[:16]


def config_hash(config: HardwareConfig) -> str:
    """Short stable digest identifying a hardware configuration.

    Looked up once per config object: configs are frozen, so the digest
    is stored on the instance on first use and later calls read it back
    (the simulation cache asks for it on every layer it keys, reads and
    writes). The first call on an object finds the digest of an equal,
    earlier config in a small memo keyed by field values and types
    (sweeps rebuild the same presets) and computes it only for a
    configuration not seen before.
    """
    digest = getattr(config, _DIGEST_ATTRIBUTE, None)
    if digest is None:
        digest = _digest(config, _field_types(config))
        # frozen dataclass: the digest bypasses __setattr__, and it is no
        # field, so equality, hashing and asdict never see it
        object.__setattr__(config, _DIGEST_ATTRIBUTE, digest)
    return digest


@functools.lru_cache(maxsize=None)
def _host() -> Tuple[Tuple[str, str], ...]:
    """The facts that cannot change within a process, read once."""
    import numpy

    return (
        ("tool", "stonne-repro"),
        ("version", __version__),
        ("python", platform.python_version()),
        ("numpy", numpy.__version__),
        ("platform", platform.platform()),
    )


def run_metadata(config: Optional[HardwareConfig] = None,
                 seed: Optional[int] = None) -> Dict[str, object]:
    """Provenance record for one simulation run (every report's: an
    :class:`~repro.engine.accelerator.Accelerator` takes one when it is
    built). Only the timestamp is read per call."""
    metadata: Dict[str, object] = dict(_host())
    metadata["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds"
    )
    if config is not None:
        metadata["config_name"] = config.name
        metadata["config_hash"] = config_hash(config)
    if seed is not None:
        metadata["seed"] = int(seed)
    return metadata
