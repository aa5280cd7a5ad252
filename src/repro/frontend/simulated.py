"""Offloading glue between the framework and the simulation platform.

A :class:`SimulationContext` plays the role of the paper's modified
PyTorch runtime: it owns (or wraps) an :class:`~repro.engine.Accelerator`
and translates framework-level layer calls into STONNE operations. Two
usage styles are supported, matching Fig. 2d:

1. **Explicit simulated layers** — build the model with
   :class:`SimulatedConv2d` / :class:`SimulatedLinear` /
   :class:`SimulatedMaxPool2d`, each constructed with the context (the
   analogue of passing ``stonne_hw.cfg`` to every ``Simulated*`` call).
2. **Transparent attachment** — build a normal model and call
   :func:`simulate` (or :func:`attach_context`) to offload its
   compute-intensive layers without touching the model definition.

Layer outputs are bit-identical to what the accelerator's functional path
produces, so full-model predictions can be compared against the native CPU
execution exactly as in the paper's functional validation.
"""

from __future__ import annotations

import numpy as np

from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.frontend.layers import Conv2d, Linear, MaxPool2d
from repro.frontend.module import Module


class SimulationContext:
    """Binds a model execution to one simulated accelerator instance.

    ``tiles`` optionally maps layer names to explicit
    :class:`~repro.config.TileConfig` mappings — the per-layer tile
    configuration the paper's modified models carry alongside the hardware
    ``.cfg`` file. Layers without an entry use the mapper's automatic
    tile.
    """

    def __init__(
        self, accelerator: Accelerator, round_builder=None, tiles=None
    ) -> None:
        self.accelerator = accelerator
        #: filter-scheduling policy for sparse executions (use case 3)
        self.round_builder = round_builder
        #: per-layer tile overrides, keyed by layer name
        self.tiles = dict(tiles or {})
        self._op_index = 0

    def _next_name(self, module: Module, kind: str) -> str:
        self._op_index += 1
        return f"{self._op_index:03d}-{module.name or kind}"

    @property
    def is_sparse(self) -> bool:
        return self.accelerator.sparse_controller is not None

    # ---- offloaded operations -------------------------------------------
    def conv(self, module: Conv2d, x: np.ndarray) -> np.ndarray:
        return self.accelerator.run_conv(
            module.weight.data,
            x,
            stride=module.stride,
            padding=module.padding,
            groups=module.groups,
            tile=self.tiles.get(module.name),
            name=self._next_name(module, "conv"),
            round_builder=self.round_builder,
        )

    def linear(self, module: Linear, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        lead_shape = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        name = self._next_name(module, "linear")
        weight = module.weight.data
        if self.is_sparse:
            out = self.accelerator.run_spmm(
                weight, flat.T, round_builder=self.round_builder, name=name
            ).T
        else:
            out = self.accelerator.run_gemm(
                weight, flat.T, tile=self.tiles.get(module.name), name=name
            ).T
        return out.reshape(*lead_shape, weight.shape[0]).astype(np.float32)

    def matmul(self, a: np.ndarray, b: np.ndarray, name: str = "matmul") -> np.ndarray:
        """Dynamic activation-by-activation GEMM (transformer attention)."""
        self._op_index += 1
        name = f"{self._op_index:03d}-{name}"
        if self.is_sparse:
            return self.accelerator.run_spmm(
                a, b, round_builder=self.round_builder, name=name
            )
        return self.accelerator.run_gemm(a, b, name=name)

    def maxpool(self, module: MaxPool2d, x: np.ndarray) -> np.ndarray:
        return self.accelerator.run_maxpool(
            x, module.pool, module.stride, name=self._next_name(module, "maxpool")
        )


def attach_context(model: Module, context: SimulationContext) -> Module:
    """Offload ``model``'s compute-intensive layers to ``context``."""
    for module in model.modules():
        module.context = context
    return model


def detach_context(model: Module) -> Module:
    """Return the model to native CPU execution."""
    for module in model.modules():
        module.context = None
    return model


def simulate(
    model: Module, accelerator: Accelerator, round_builder=None, tiles=None
) -> SimulationContext:
    """Attach ``model`` to ``accelerator``; returns the created context."""
    context = SimulationContext(
        accelerator, round_builder=round_builder, tiles=tiles
    )
    attach_context(model, context)
    return context


def simulate_parallel(
    model: Module,
    accelerator: Accelerator,
    x: np.ndarray,
    jobs: int = 1,
    cache=None,
    round_builder=None,
    tiles=None,
    progress=None,
):
    """Run ``model(x)`` through one record pass, then time each distinct
    layer once, in process.

    The merged per-layer reports land in ``accelerator.report`` exactly as
    a serial :func:`simulate` run would leave them (byte-identical cycles,
    counters and outputs — pinned by the differential suite). ``jobs`` is
    validated and recorded as ``parallel_jobs`` but starts no process and
    changes no result. ``cache``
    optionally reuses results from a :class:`~repro.parallel.SimCache`;
    ``progress`` optionally streams per-layer completion through a
    :class:`~repro.observability.telemetry.ProgressEmitter`.
    Returns the :class:`~repro.parallel.runner.ModelRunResult`.
    """
    from repro.parallel import ParallelModelRunner

    runner = ParallelModelRunner(
        accelerator.config,
        jobs=jobs,
        cache=cache,
        observability=accelerator.obs,
        round_builder=round_builder,
        tiles=tiles,
        progress=progress,
    )
    result = runner.run_model(
        model, x, base_cycle=accelerator.report.total_cycles
    )
    for layer in result.report.layers:
        accelerator.report.append(layer)
    for key, value in result.report.metadata.items():
        if key.startswith("parallel_"):
            accelerator.report.metadata[key] = value
    return result


class SimulatedConv2d(Conv2d):
    """A convolution constructed directly in simulated mode (Fig. 2d)."""

    def __init__(self, context: SimulationContext, *args, **kwargs) -> None:
        if not isinstance(context, SimulationContext):
            raise ConfigurationError(
                "SimulatedConv2d needs a SimulationContext as its first argument"
            )
        super().__init__(*args, **kwargs)
        self.context = context


class SimulatedLinear(Linear):
    """A fully-connected layer constructed directly in simulated mode."""

    def __init__(self, context: SimulationContext, *args, **kwargs) -> None:
        if not isinstance(context, SimulationContext):
            raise ConfigurationError(
                "SimulatedLinear needs a SimulationContext as its first argument"
            )
        super().__init__(*args, **kwargs)
        self.context = context


class SimulatedMaxPool2d(MaxPool2d):
    """A pooling layer constructed directly in simulated mode."""

    def __init__(self, context: SimulationContext, *args, **kwargs) -> None:
        if not isinstance(context, SimulationContext):
            raise ConfigurationError(
                "SimulatedMaxPool2d needs a SimulationContext as its first argument"
            )
        super().__init__(*args, **kwargs)
        self.context = context
