"""Layer workloads and the recording pass.

Whole-model simulation splits into two halves with very different
dependence structures:

- the **functional** half (real tensor values) is inherently serial —
  each layer consumes its predecessor's output;
- the **microarchitectural** half (cycles, counters) of each layer is
  independent of every other layer (paper Fig. 2d: the framework drives
  the accelerator layer by layer, and per-layer results are
  execution-order independent).

:class:`RecordingAccelerator` exploits this: it duck-types the
:class:`~repro.engine.accelerator.Accelerator` operations an attached
:class:`~repro.frontend.simulated.SimulationContext` calls, computes the
functional outputs through the *same* module-level helpers the real
engine uses (so outputs stay bit-identical), and records one
:class:`LayerWorkload` per offloaded operation. The runner then times the
recorded workloads out of order — across worker processes or from the
simulation cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.config.hardware import HardwareConfig
from repro.engine.accelerator import (
    conv_functional,
    conv_layer_spec,
    gemm_functional,
    maxpool_functional,
)
from repro.errors import ConfigurationError, MappingError
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


class RecordingAccelerator:
    """Functional-only stand-in for :class:`Accelerator`.

    Runs every operation for real values (bit-identical to the engine's
    functional path) while recording the workload instead of simulating
    its timing. Exposes exactly the surface a
    :class:`~repro.frontend.simulated.SimulationContext` touches.
    """

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        #: truthy marker so ``SimulationContext.is_sparse`` dispatches the
        #: way it would on a real sparse accelerator
        self.sparse_controller = object() if config.is_sparse else None
        self.workloads: List[LayerWorkload] = []

    def _record(
        self,
        kind: str,
        name: str,
        params: Dict[str, Any],
        operands: Dict[str, Any],
    ) -> None:
        self.workloads.append(LayerWorkload(
            index=len(self.workloads),
            kind=kind,
            name=name,
            params=params,
            operands=operands,
            data_dependent=(
                kind in DATA_DEPENDENT_KINDS or self.config.is_sparse
            ),
        ))

    # ---- the Accelerator operation surface ---------------------------
    def run_conv(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        tile=None,
        name: str = "conv",
        round_builder=None,
    ) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float32)
        activations = np.asarray(activations, dtype=np.float32)
        layer = conv_layer_spec(
            weights, activations, stride=stride, padding=padding,
            groups=groups, name=name,
        )
        output, _ = conv_functional(
            weights, activations, stride, padding, groups, layer
        )
        self._record(
            "conv", name,
            {"stride": stride, "padding": padding, "groups": groups,
             "tile": tile, "round_builder": round_builder},
            {"weights": weights, "inputs": activations},
        )
        return output

    def run_gemm(
        self, a: np.ndarray, b: np.ndarray, tile=None, name: str = "gemm"
    ) -> np.ndarray:
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible GEMM operands {a.shape} @ {b.shape}"
            )
        output = gemm_functional(a, b)
        self._record("gemm", name, {"tile": tile}, {"weights": a, "inputs": b})
        return output

    def run_spmm(
        self, a, b: np.ndarray, round_builder=None, name: str = "spmm",
        sparse_streaming: bool = False,
    ) -> np.ndarray:
        if self.sparse_controller is None:
            raise MappingError(
                "this accelerator has no sparse controller; configure a "
                "SIGMA-like instance for SpMM"
            )
        b = np.asarray(b, dtype=np.float32)
        dense_a = (
            a.to_dense() if isinstance(a, (BitmapMatrix, CsrMatrix)) else
            np.asarray(a, dtype=np.float32)
        )
        if dense_a.ndim != 2 or b.ndim != 2 or dense_a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible SpMM operands {dense_a.shape} @ {b.shape}"
            )
        output = gemm_functional(dense_a.astype(np.float32, copy=False), b)
        self._record(
            "spmm", name,
            {"round_builder": round_builder,
             "sparse_streaming": sparse_streaming},
            {"weights": a, "inputs": b},
        )
        return output

    def run_maxpool(
        self, activations: np.ndarray, pool: int,
        stride: Optional[int] = None, name: str = "maxpool",
    ) -> np.ndarray:
        stride = stride or pool
        activations = np.asarray(activations, dtype=np.float32)
        output, _ = maxpool_functional(activations, pool, stride)
        self._record(
            "maxpool", name, {"pool": pool, "stride": stride},
            {"inputs": activations},
        )
        return output


def record_model(
    model, x: np.ndarray, config: HardwareConfig,
    round_builder=None, tiles=None,
) -> Tuple[np.ndarray, List[LayerWorkload]]:
    """Run ``model(x)`` functionally, capturing its offloaded layers.

    Returns the (bit-identical) model output and the recorded workloads
    in framework execution order.
    """
    from repro.frontend.simulated import (
        SimulationContext, attach_context, detach_context,
    )

    recorder = RecordingAccelerator(config)
    context = SimulationContext(
        recorder, round_builder=round_builder, tiles=tiles
    )
    attach_context(model, context)
    try:
        output = model(x)
    finally:
        detach_context(model)
    return output, recorder.workloads
