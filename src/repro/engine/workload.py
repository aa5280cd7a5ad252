"""``LayerWorkload``: one offloaded operation as plain data.

What the functional half of an operation hands the microarchitectural
half (:meth:`repro.engine.accelerator.Accelerator.time`), and so also
what the parallel runner records, pickles to pool workers and keys the
simulation cache by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro.tensors.sparse import BitmapMatrix, CsrMatrix

#: operation kinds whose timing depends on operand *values*, not just
#: shapes: sparse scheduling packs rounds from the non-zero structure and
#: SNAPEA terminates dot products from the running partial sums
DATA_DEPENDENT_KINDS = frozenset({"spmm", "snapea"})


@dataclass(frozen=True)
class LayerWorkload:
    """One offloaded operation, detached from model execution order."""

    index: int
    kind: str  # conv | gemm | spmm | maxpool | snapea
    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    operands: Dict[str, Any] = field(default_factory=dict)
    #: True when the timing model reads operand values (sparse rounds,
    #: SNAPEA early termination) — such results must never be cached
    data_dependent: bool = False

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Operand name → shape (the value-independent view)."""
        result = {}
        for key, value in self.operands.items():
            if isinstance(value, (BitmapMatrix, CsrMatrix)):
                result[key] = tuple(value.shape)
            else:
                result[key] = tuple(np.asarray(value).shape)
        return result
