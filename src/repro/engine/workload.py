"""``LayerWorkload``: one offloaded operation as plain data.

What the functional half of an operation hands the microarchitectural
half (:meth:`repro.engine.accelerator.Accelerator.time`), and so also
what the model runner records and keys the simulation cache by.
:meth:`LayerWorkload.timing_view` reduces it to shapes wherever values
do not decide the timing; that the view times to the same payload is
the proof that dense timing reads only shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.tensors.sparse import BitmapMatrix, CsrMatrix

#: operation kinds whose timing depends on operand *values*, not just
#: shapes: sparse scheduling packs rounds from the non-zero structure and
#: SNAPEA terminates dot products from the running partial sums
DATA_DEPENDENT_KINDS = frozenset({"spmm", "snapea"})

#: params that describe the *mapping*, per value-independent kind —
#: anything else a workload carries (round_builder objects, flags) does
#: not change its timing. Both the simulation cache key and the serial
#: fold key (:meth:`LayerWorkload.fold_key`) read exactly these;
#: ``tests/property/test_prop_cache_key_fields.py`` checks that a param
#: left out could not have changed the payload
MAPPING_PARAMS = {
    "conv": ("stride", "padding", "groups", "tile"),
    "gemm": ("tile",),
    "maxpool": ("pool", "stride"),
}

#: ``str(dtype)`` of the dtypes operands carry, precomputed: ``str`` of a
#: NumPy dtype runs Python code on every call, a table read does not
_DTYPE_NAMES = {
    np.dtype(name): str(np.dtype(name))
    for name in ("float16", "float32", "float64", "int8", "int16", "int32",
                 "int64", "uint8", "bool")
}


def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, read from a table for the common dtypes."""
    name = _DTYPE_NAMES.get(dtype)
    return name if name is not None else str(dtype)


def _exact(value: Any) -> Any:
    """``value`` as a key part that equals another only where the cache
    key writes both the same: ``1``, ``True`` and ``1.0`` compare equal
    but serialise apart, and so do ``0.0`` and ``-0.0``. A plain int or
    ``None`` (the front end's params) is its own key part."""
    kind = type(value)
    if kind is int or value is None:
        return value
    if isinstance(value, float):
        return kind, float.__repr__(value)
    if dataclasses.is_dataclass(kind):
        return kind, tuple(
            _exact(getattr(value, item.name))
            for item in dataclasses.fields(kind)
        )
    return kind, value


@dataclass(frozen=True)
class OperandSpec:
    """An operand reduced to what value-independent timing reads.

    Stands in for the array in a :meth:`LayerWorkload.timing_view`: it
    answers ``.shape``, ``.ndim`` and ``.dtype`` (the NumPy dtype *name*)
    and holds no values, so it pickles in tens of bytes whatever the
    tensor's size.
    """

    shape: Tuple[int, ...]
    dtype: str

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @classmethod
    def of(cls, operand: Any) -> "OperandSpec":
        """The spec of an array, a compressed matrix or a spec."""
        if isinstance(operand, OperandSpec):
            return operand
        if isinstance(operand, (BitmapMatrix, CsrMatrix)):
            # never densify just to read a shape
            return cls(tuple(operand.shape), dtype_name(operand.values.dtype))
        array = np.asarray(operand)
        return cls(tuple(array.shape), dtype_name(array.dtype))


@dataclass(frozen=True)
class LayerWorkload:
    """One offloaded operation, detached from model execution order."""

    index: int
    kind: str  # conv | gemm | spmm | maxpool | snapea
    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: operand name → array, compressed matrix or (in a timing view)
    #: :class:`OperandSpec`
    operands: Dict[str, Any] = field(default_factory=dict)
    #: True when the timing model reads operand values (sparse rounds,
    #: SNAPEA early termination) — such results must never be cached
    data_dependent: bool = False

    def shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Operand name → shape (the value-independent view)."""
        return {
            key: OperandSpec.of(value).shape
            for key, value in self.operands.items()
        }

    def fold_key(self) -> Tuple:
        """A hashable key under which equal workloads of a
        value-independent kind time the same on one accelerator: the
        kind, each operand's name, shape and dtype and the exact value of
        each :data:`MAPPING_PARAMS` entry. Equal keys mean equal
        simulation cache keys (``tests/differential/test_serial_fold.py``)
        and cost no hashing of text, so a serial run can look one up per
        layer."""
        key: List[Any] = [self.kind]
        for name, operand in self.operands.items():
            key += (name, operand.shape, operand.dtype)
        params = self.params
        for name in MAPPING_PARAMS[self.kind]:
            value = params.get(name)
            key.append(
                value if type(value) is int or value is None else _exact(value)
            )
        return tuple(key)

    def timing_view(self) -> "LayerWorkload":
        """This workload with every operand reduced to its
        :class:`OperandSpec` — same cache key, same
        :meth:`Accelerator.time` payload wherever timing is
        value-independent, and no tensor to carry.

        A ``data_dependent`` workload has no such view (its values *are*
        the input of the timing model) and is returned as is. Whether a
        view may stand in for a workload on a given hardware point is
        :func:`repro.parallel.cache.cacheable`'s call, not this method's:
        on a sparse fabric even a conv's timing reads its weights.
        """
        if self.data_dependent:
            return self
        return dataclasses.replace(self, operands={
            key: OperandSpec.of(value)
            for key, value in self.operands.items()
        })
