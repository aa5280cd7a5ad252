"""The STONNE API (paper Table III).

The coarse-grained instruction set through which an input module (a DL
framework front-end) drives the simulation platform:

=================  ======================================================
Instruction        Description
=================  ======================================================
CreateInstance     Creates an instance of STONNE.
ConfigureCONV      Configures the accelerator to run a convolution.
ConfigureLinear    Configures a fully-connected layer.
ConfigureDMM       Configures a dense matrix multiplication.
ConfigureSpMM      Configures a sparse matrix multiplication.
ConfigureMaxPool   Configures a max pooling layer.
ConfigureData      Binds weight/input tensors ("addresses") to the
                   accelerator memory.
RunOperation       Launches the simulation of the configured operation.
=================  ======================================================

The API is a state machine: configure an operation, configure its data,
run. Misordered calls raise :class:`~repro.errors.ApiError`. The module
keeps the instruction-style free functions (``CreateInstance(...)``)
alongside the object API (:class:`StonneInstance`) so front-end code reads
like the paper's walk-through example.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.config.hardware import HardwareConfig, load_config
from repro.config.tile import TileConfig
from repro.engine.accelerator import Accelerator
from repro.errors import ApiError
from repro.observability import Observability
from repro.observability.registry import RunRegistry, registry_enabled


@dataclass
class _PendingOperation:
    kind: str
    params: Dict[str, Any]


class StonneInstance:
    """One simulator instance driven through the Table III instructions."""

    def __init__(
        self,
        config: Union[HardwareConfig, str, Path],
        observability: Optional[Observability] = None,
        registry: Optional[Union[RunRegistry, str, Path]] = None,
    ) -> None:
        if not isinstance(config, HardwareConfig):
            config = load_config(config)
        self.accelerator = Accelerator(config, observability=observability)
        if registry is not None and not isinstance(registry, RunRegistry):
            registry = RunRegistry(registry)
        self.registry = registry
        self._operation: Optional[_PendingOperation] = None
        self._data: Dict[str, np.ndarray] = {}
        self._data_configured = False

    # ---- Configure* ------------------------------------------------------
    def configure_conv(
        self,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        tile: Optional[TileConfig] = None,
        name: str = "conv",
    ) -> None:
        self._operation = _PendingOperation(
            "conv",
            {"stride": stride, "padding": padding, "groups": groups,
             "tile": tile, "name": name},
        )

    def configure_linear(
        self, tile: Optional[TileConfig] = None, name: str = "linear"
    ) -> None:
        self._operation = _PendingOperation("linear", {"tile": tile, "name": name})

    def configure_dmm(
        self, tile: Optional[TileConfig] = None, name: str = "gemm"
    ) -> None:
        self._operation = _PendingOperation("dmm", {"tile": tile, "name": name})

    def configure_spmm(self, round_builder=None, name: str = "spmm") -> None:
        self._operation = _PendingOperation(
            "spmm", {"round_builder": round_builder, "name": name}
        )

    def configure_maxpool(
        self, pool: int, stride: Optional[int] = None, name: str = "maxpool"
    ) -> None:
        self._operation = _PendingOperation(
            "maxpool", {"pool": pool, "stride": stride, "name": name}
        )

    # ---- ConfigureData -----------------------------------------------------
    def configure_data(
        self,
        weights: Optional[np.ndarray] = None,
        inputs: Optional[np.ndarray] = None,
    ) -> None:
        if self._operation is None:
            raise ApiError("ConfigureData before any Configure* instruction")
        self._data = {}
        if weights is not None:
            self._data["weights"] = np.asarray(weights)
        if inputs is not None:
            self._data["inputs"] = np.asarray(inputs)
        self._data_configured = True

    # ---- RunOperation ---------------------------------------------------
    def run_operation(self) -> np.ndarray:
        if self._operation is None:
            raise ApiError("RunOperation before any Configure* instruction")
        if not self._data_configured:
            raise ApiError(
                "RunOperation before ConfigureData: bind the operand "
                "tensors with ConfigureData first"
            )
        op = self._operation
        inputs = self._data.get("inputs")
        weights = self._data.get("weights")
        if op.kind == "conv":
            self._require(weights is not None and inputs is not None,
                          "conv needs weights and inputs")
            result = self.accelerator.run_conv(
                weights, inputs, stride=op.params["stride"],
                padding=op.params["padding"], groups=op.params["groups"],
                tile=op.params["tile"], name=op.params["name"],
            )
        elif op.kind in ("linear", "dmm"):
            self._require(weights is not None and inputs is not None,
                          f"{op.kind} needs weights and inputs")
            result = self.accelerator.run_gemm(
                weights, inputs, tile=op.params["tile"], name=op.params["name"]
            )
        elif op.kind == "spmm":
            self._require(weights is not None and inputs is not None,
                          "spmm needs weights and inputs")
            result = self.accelerator.run_spmm(
                weights, inputs, round_builder=op.params["round_builder"],
                name=op.params["name"],
            )
        elif op.kind == "maxpool":
            self._require(inputs is not None, "maxpool needs inputs")
            result = self.accelerator.run_maxpool(
                inputs, pool=op.params["pool"], stride=op.params["stride"],
                name=op.params["name"],
            )
        else:  # pragma: no cover - state machine exhausts the kinds above
            raise ApiError(f"unknown operation kind {op.kind!r}")
        self._operation = None
        self._data = {}
        self._data_configured = False
        return result

    # ---- whole-model execution ------------------------------------------
    def run_model(
        self,
        model,
        inputs: np.ndarray,
        jobs: int = 1,
        cache=None,
        round_builder=None,
        tiles=None,
    ):
        """Simulate every offloaded layer of ``model`` on this instance.

        Each distinct layer is timed once, in process; an optional
        :class:`~repro.parallel.SimCache` reuses previously simulated
        (layer, tile, hardware) results. ``jobs`` is validated and
        recorded but starts no process; either way the merged report is
        byte-identical to driving the layers one by one. Layer
        reports accumulate into :attr:`report` exactly as per-operation
        instructions do. Returns a
        :class:`~repro.parallel.runner.ModelRunResult`.
        """
        from repro.frontend.simulated import simulate_parallel

        result = simulate_parallel(
            model, self.accelerator, inputs, jobs=jobs, cache=cache,
            round_builder=round_builder, tiles=tiles,
        )
        if self.registry is not None or registry_enabled(default=False):
            self.register_run(
                workload=f"model:{getattr(model, 'name', type(model).__name__)}",
                cached=bool(result.report.metadata.get("parallel_all_cached")),
            )
        return result

    # ---- run registry ---------------------------------------------------
    def register_run(
        self,
        workload: str,
        registry: Optional[Union[RunRegistry, str, Path]] = None,
        source: str = "api",
        wall_clock_s: Optional[float] = None,
        cached: bool = False,
    ) -> str:
        """Append the accumulated report to the run registry.

        Uses ``registry`` if given, else the instance's registry, else
        the default store (``~/.stonne_runs`` / ``$STONNE_RUNS_DIR``).
        Purely an observer of the finished report — never affects the
        simulation. Returns the new run id.
        """
        metrics = self.observability.metrics
        owned = None
        if registry is None:
            registry = self.registry
        if registry is None:
            registry = owned = RunRegistry()
        elif not isinstance(registry, RunRegistry):
            registry = owned = RunRegistry(registry)
        try:
            return registry.record_report(
                self.report,
                workload=workload,
                source=source,
                wall_clock_s=wall_clock_s,
                cached=cached,
                metrics=metrics.summary() if metrics is not None else None,
            )
        finally:
            if owned is not None:
                owned.close()

    @property
    def report(self):
        """The accumulated simulation report (Output Module)."""
        return self.accelerator.report

    @property
    def observability(self) -> Observability:
        """The instance's observability context (tracer, metrics, ledgers,
        per-layer host time)."""
        return self.accelerator.obs

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise ApiError(message)


# ---- instruction-style aliases (Table III spelling) -----------------------
def CreateInstance(
    config: Union[HardwareConfig, str, Path],
    observability: Optional[Observability] = None,
) -> StonneInstance:
    return StonneInstance(config, observability=observability)


def ConfigureCONV(instance: StonneInstance, **kwargs) -> None:
    instance.configure_conv(**kwargs)


def ConfigureLinear(instance: StonneInstance, **kwargs) -> None:
    instance.configure_linear(**kwargs)


def ConfigureDMM(instance: StonneInstance, **kwargs) -> None:
    instance.configure_dmm(**kwargs)


def ConfigureSpMM(instance: StonneInstance, **kwargs) -> None:
    instance.configure_spmm(**kwargs)


def ConfigureMaxPool(instance: StonneInstance, pool: int, **kwargs) -> None:
    instance.configure_maxpool(pool, **kwargs)


def ConfigureData(instance: StonneInstance, weights=None, inputs=None) -> None:
    instance.configure_data(weights=weights, inputs=inputs)


def RunOperation(instance: StonneInstance) -> np.ndarray:
    return instance.run_operation()
