"""Layer workloads and the recording pass.

Whole-model simulation splits into two halves with very different
dependence structures:

- the **functional** half (real tensor values) is inherently serial —
  each layer consumes its predecessor's output;
- the **microarchitectural** half (cycles, counters) of each layer is
  independent of every other layer (paper Fig. 2d: the framework drives
  the accelerator layer by layer, and per-layer results are
  execution-order independent).

:class:`RecordingAccelerator` exploits this: it is the front end the
real :class:`~repro.engine.accelerator.Accelerator` inherits too
(:class:`~repro.engine.accelerator.OperationFrontEnd` — same coercion,
validation and functional helpers, so outputs and errors are the same
bytes) with a ``time`` that appends the :class:`LayerWorkload` instead of
simulating it. The runner then times the recorded workloads out of order
through :meth:`Accelerator.time`, each distinct one once, or serves
them from the simulation cache.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.config.hardware import HardwareConfig
from repro.engine.accelerator import OperationFrontEnd
from repro.engine.workload import DATA_DEPENDENT_KINDS, LayerWorkload

# the first two are re-exported: their home is repro.engine.workload
__all__ = ["DATA_DEPENDENT_KINDS", "LayerWorkload", "RecordingAccelerator",
           "record_model"]


class RecordingAccelerator(OperationFrontEnd):
    """Functional-only stand-in for :class:`Accelerator`.

    The inherited front end runs every operation for real values; timing
    a workload means keeping it for the runner.
    """

    def __init__(self, config: HardwareConfig) -> None:
        super().__init__(config)
        #: truthy marker so ``SimulationContext.is_sparse`` dispatches the
        #: way it would on a real sparse accelerator
        self.sparse_controller = object() if config.is_sparse else None
        self.workloads: List[LayerWorkload] = []

    def time(self, workload: LayerWorkload) -> None:
        self.workloads.append(workload)


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
