"""Whole-model simulation and the simulation-result cache.

Layer-by-layer execution (paper Fig. 2d) makes whole-model simulation a
set of independent per-layer timings once the functional pass has
recorded each layer's operands: per-layer timing is independent of
execution order, and for dense paths it is independent of operand values
too. This package exploits both facts:

- :class:`ParallelModelRunner` — records a model's offloaded layers in
  one functional pass, then times each distinct layer once, in process,
  with results merged in execution order;
- :class:`SimCache` — memoizes per-layer timing results under a
  canonical (layer, tile, hardware) key, persisted to disk with
  versioned invalidation; data-dependent paths (SpMM round packing,
  SNAPEA early termination) are refused by construction.

See ``docs/PARALLEL.md`` for the cache-key semantics and why no process
pool times the layers.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    SimCache,
    cacheable,
    canonical_key,
    canonical_key_source,
)
from repro.parallel.runner import (
    ModelRunResult,
    ParallelModelRunner,
    shutdown_pools,
)
from repro.parallel.workload import (
    DATA_DEPENDENT_KINDS,
    LayerWorkload,
    RecordingAccelerator,
    record_model,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DATA_DEPENDENT_KINDS",
    "LayerWorkload",
    "ModelRunResult",
    "ParallelModelRunner",
    "RecordingAccelerator",
    "SimCache",
    "cacheable",
    "canonical_key",
    "canonical_key_source",
    "record_model",
    "shutdown_pools",
]
