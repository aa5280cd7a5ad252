"""The top-level ``Accelerator`` class (paper Fig. 4).

An ``Accelerator`` composes the building blocks a
:class:`~repro.config.HardwareConfig` selects — distribution / multiplier
/ reduction networks, Global Buffer, DRAM and a memory controller (or the
systolic engine for point-to-point configurations) — and exposes the
operations of the STONNE API: convolutions, GEMMs, sparse GEMMs and
pooling. Every operation is executed *functionally* (producing the real
output tensor, which is what enables full-model evaluation and
data-dependent optimizations) and *microarchitecturally* (producing the
cycle count and per-component activity recorded in the simulation
report).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.config.hardware import ControllerKind, HardwareConfig
from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.config.tile import TileConfig
from repro.engine.mapper import Mapper
from repro.engine.stats import LayerReport, SimulationReport
from repro.engine.systolic import SystolicEngine
from repro.errors import ConfigurationError, MappingError
from repro.memory.dense_controller import DenseController
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.memory.sparse_controller import RoundBuilder, SparseController
from repro.noc.base import CounterSet
from repro.observability.context import TRACE_COUNTER_SERIES, Observability
from repro.noc.distribution import build_distribution_network
from repro.noc.multiplier import build_multiplier_network
from repro.noc.reduction import build_reduction_network
from repro.tensors.im2col import col2im_output, im2col
from repro.tensors.sparse import BitmapMatrix, CsrMatrix

# re-exported for convenience
__all__ = [
    "Accelerator",
    "LayerReport",
    "conv_layer_spec",
    "conv_functional",
    "gemm_functional",
    "maxpool_functional",
]


# ----------------------------------------------------------------------
# functional execution helpers
#
# The value-producing half of every operation lives in module-level
# functions so the parallel runner's recording pass (repro.parallel)
# computes bit-identical outputs through the *same* code the serial
# Accelerator uses — the invariant the differential test suite pins.
# ----------------------------------------------------------------------
def conv_layer_spec(
    weights: np.ndarray,
    activations: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    name: str = "conv",
) -> ConvLayerSpec:
    """Validate conv operands and derive the layer descriptor."""
    if weights.ndim != 4 or activations.ndim != 4:
        raise ConfigurationError("conv expects 4-D weights and activations")
    k_total, c_g, r, s = weights.shape
    n, c_total, x, y = activations.shape
    if c_total != c_g * groups or k_total % groups:
        raise ConfigurationError(
            f"group mismatch: weights {weights.shape}, activations "
            f"{activations.shape}, groups {groups}"
        )
    return ConvLayerSpec(
        r=r, s=s, c=c_g, k=k_total // groups, g=groups, n=n,
        x=x + 2 * padding, y=y + 2 * padding, stride=stride, name=name,
    )


def conv_functional(
    weights: np.ndarray,
    activations: np.ndarray,
    stride: int,
    padding: int,
    groups: int,
    layer: ConvLayerSpec,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Real-valued convolution via im2col; returns (output, group_cols)."""
    k = layer.k
    crs = layer.filter_size
    # one unfold over all channels: rows are (c, r, s)-ordered, so a
    # group's column matrix is a C-contiguous row slice
    cols = im2col(activations, layer.r, layer.s, stride, padding)
    group_cols = [cols[g * crs : (g + 1) * crs] for g in range(groups)]
    out = np.matmul(
        weights.reshape(groups, k, crs), cols.reshape(groups, crs, -1)
    ).reshape(groups * k, -1)
    return col2im_output(out, layer.n, layer.x_out, layer.y_out), group_cols


def gemm_functional(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real-valued dense matrix multiplication."""
    return (a @ b).astype(np.float32, copy=False)


def maxpool_functional(
    activations: np.ndarray, pool: int, stride: int
) -> Tuple[np.ndarray, int]:
    """Real-valued max pooling; returns (output, window comparisons)."""
    n, c, x, y = activations.shape
    xo = (x - pool) // stride + 1
    yo = (y - pool) // stride + 1
    cols = im2col(activations.reshape(n * c, 1, x, y), pool, pool, stride, 0)
    output = cols.max(axis=0).reshape(n * c, xo, yo).reshape(n, c, xo, yo)
    return output, int(cols.size)


class Accelerator:
    """One simulated accelerator instance."""

    def __init__(
        self,
        config: HardwareConfig,
        observability: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.obs = observability if observability is not None else Observability()
        self.obs.bind(self._snapshot)
        self.mapper = Mapper(config)
        self.gb = GlobalBuffer(
            size_kb=config.gb_size_kb,
            banks=config.gb_banks,
            read_bandwidth=config.dn_bandwidth,
            write_bandwidth=config.rn_bandwidth,
            dtype=config.dtype,
        )
        self.dram = Dram(config.dram, config.clock_ghz)
        self.report = SimulationReport(config)

        self.systolic: Optional[SystolicEngine] = None
        self.dense_controller: Optional[DenseController] = None
        self.sparse_controller: Optional[SparseController] = None

        if config.is_systolic:
            self.systolic = SystolicEngine(config, self.gb, self.dram)
            self._components = [self.gb, self.dram, self.systolic]
        else:
            self.dn = build_distribution_network(
                config.distribution, config.num_ms, config.dn_bandwidth
            )
            self.mn = build_multiplier_network(config.multiplier, config.num_ms)
            self.rn = build_reduction_network(
                config.reduction,
                config.num_ms,
                config.rn_bandwidth,
                config.accumulation_buffer,
            )
            if config.controller is ControllerKind.SPARSE:
                self.sparse_controller = SparseController(
                    config, self.dn, self.mn, self.rn, self.gb, self.dram
                )
                controller = self.sparse_controller
            else:
                # SNAPEA configurations use the dense controller as their
                # baseline; the early-termination variant lives in
                # repro.opts.snapea.
                self.dense_controller = DenseController(
                    config, self.dn, self.mn, self.rn, self.gb, self.dram
                )
                controller = self.dense_controller
            self._components = [self.gb, self.dram, self.dn, self.mn, self.rn, controller]
        for component in self._components:
            component.obs = self.obs

    # ------------------------------------------------------------------
    # component iteration (the Fig. 4 cycle loop)
    # ------------------------------------------------------------------
    @property
    def components(self) -> List:
        return list(self._components)

    def cycle(self) -> None:
        """Advance every configured component by one clock."""
        for component in self._components:
            component.cycle()

    def reset(self) -> None:
        for component in self._components:
            component.reset()
        self.report = SimulationReport(self.config)

    def _snapshot(self) -> CounterSet:
        merged = CounterSet()
        for component in self._components:
            merged.merge(component.counters)
        return merged

    def _start_layer(self, name: str, kind: str) -> None:
        """Open the layer's observability window on the cycle timeline."""
        # Per-layer results must not depend on execution order: the DRAM
        # row buffer is the only cross-layer state, so every layer starts
        # cold. This is what lets repro.parallel simulate layers out of
        # order (or replay them from cache) byte-identically.
        self.dram.new_layer()
        self.obs.start_layer(self.report.total_cycles)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.begin(f"layer:{name}", "accelerator", self.obs.base, kind=kind)

    def _finish_layer(
        self,
        name: str,
        kind: str,
        before: CounterSet,
        cycles: int,
        macs: int,
        outputs: int,
        utilization: float,
        **extra,
    ) -> LayerReport:
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.end(
                self.obs.base + cycles,
                cycles=cycles, macs=macs,
                utilization=round(utilization, 6),
            )
        self.obs.end_layer(cycles)
        if self.obs.metrics is not None:
            extra["metrics"] = [
                {
                    "cycle": sample.cycle,
                    **{
                        key: sample.values[key]
                        for key in TRACE_COUNTER_SERIES if key in sample.values
                    },
                }
                for sample in self.obs.layer_samples()
            ]
        if self.obs.stalls is not None:
            # finalize checks conservation and fills the idle remainder;
            # the ledger rides in `extra` so counters stay byte-identical
            # with attribution off
            extra["stalls"] = self.obs.stalls.finalize(cycles)
        delta = self._snapshot().diff(before)
        if self.obs.fabric is not None:
            # the fabric ledger's consistency invariant needs the layer's
            # counter delta; like stalls, it rides only in `extra`
            extra["fabric"] = self.obs.fabric.finalize(delta.as_dict(), cycles)
        layer = LayerReport(
            name=name,
            kind=kind,
            cycles=cycles,
            macs=macs,
            outputs=outputs,
            multiplier_utilization=utilization,
            counters=delta,
            extra=dict(extra),
        )
        self.report.append(layer)
        return layer

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def run_conv(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        tile: Optional[TileConfig] = None,
        name: str = "conv",
        round_builder: Optional[RoundBuilder] = None,
    ) -> np.ndarray:
        """Simulate a 2-D convolution; returns the output tensor.

        ``weights``: (K_total, C/groups, R, S); ``activations``:
        (N, C_total, X, Y).
        """
        weights = np.asarray(weights, dtype=np.float32)
        activations = np.asarray(activations, dtype=np.float32)
        layer = conv_layer_spec(
            weights, activations, stride=stride, padding=padding,
            groups=groups, name=name,
        )
        self._start_layer(name, "conv")

        # ---- functional execution (real values) ----
        with self.obs.profiler.phase("functional"):
            output, group_cols = conv_functional(
                weights, activations, stride, padding, groups, layer
            )

        # ---- microarchitectural execution ----
        before = self._snapshot()
        if self.systolic is not None:
            # a grouped conv is `groups` identical GEMMs run back to back
            gemm = layer.to_gemm()
            result = self.systolic.time_gemm(
                gemm.m, gemm.k, gemm.n, repeats=groups
            )
            cycles = result.cycles * groups
            macs = result.macs * groups
            # FLOAT-ORDER: utilization is payload bytes and `groups * x`
            # is not `x + x + ...`, so keep the left-to-right sum
            util_acc = 0.0
            for _ in range(groups):
                util_acc += result.multiplier_utilization * result.cycles
            utilization = util_acc / cycles if cycles else 0.0
        elif self.sparse_controller is not None:
            result = self._sparse_conv_timing(weights, group_cols, layer, round_builder)
            cycles, macs = result.cycles, result.effective_macs
            utilization = result.multiplier_utilization
        else:
            with self.obs.profiler.phase("map"):
                chosen = self.mapper.tile_for_conv(layer, tile)
            result = self.dense_controller.run_conv(layer, chosen)
            cycles, macs = result.cycles, result.macs
            utilization = result.multiplier_utilization

        self._finish_layer(
            name, "conv", before, cycles, macs, layer.num_outputs, utilization
        )
        return output

    def run_gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        tile: Optional[TileConfig] = None,
        name: str = "gemm",
    ) -> np.ndarray:
        """Simulate a dense matrix multiplication ``a @ b``."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigurationError(f"incompatible GEMM operands {a.shape} @ {b.shape}")
        gemm = GemmSpec(m=a.shape[0], n=b.shape[1], k=a.shape[1], name=name)
        self._start_layer(name, "gemm")
        # like the conv path: the returned output is always the
        # functional product, the engine contributes the timing —
        # keeps layer outputs identical across engines and paths
        with self.obs.profiler.phase("functional"):
            output = gemm_functional(a, b)

        before = self._snapshot()
        if self.systolic is not None:
            result = self.systolic.time_gemm(gemm.m, gemm.k, gemm.n)
            cycles, macs = result.cycles, result.macs
            utilization = result.multiplier_utilization
        elif self.sparse_controller is not None:
            result = self.sparse_controller.run_spmm(a, gemm.n)
            cycles, macs = result.cycles, result.effective_macs
            utilization = result.multiplier_utilization
        else:
            with self.obs.profiler.phase("map"):
                chosen = self.mapper.tile_for_gemm(gemm, tile)
            result = self.dense_controller.run_gemm(gemm, chosen)
            cycles, macs = result.cycles, result.macs
            utilization = result.multiplier_utilization

        self._finish_layer(
            name, "gemm", before, cycles, macs, gemm.num_outputs, utilization
        )
        return output

    def run_spmm(
        self,
        a: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        b: np.ndarray,
        round_builder: Optional[RoundBuilder] = None,
        name: str = "spmm",
        sparse_streaming: bool = False,
    ) -> np.ndarray:
        """Simulate a sparse-stationary matrix multiplication.

        ``sparse_streaming=True`` additionally exploits zeros in ``b``
        (SIGMA's dual-sided sparsity); the default matches the paper's
        weight-sparsity-only evaluation configuration.
        """
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
        self._start_layer(name, "spmm")
        with self.obs.profiler.phase("functional"):
            output = gemm_functional(dense_a.astype(np.float32, copy=False), b)

        before = self._snapshot()
        result = self.sparse_controller.run_spmm(
            a, b.shape[1], round_builder,
            streaming=b if sparse_streaming else None,
        )
        self._finish_layer(
            name,
            "spmm",
            before,
            result.cycles,
            result.effective_macs,
            result.outputs,
            result.multiplier_utilization,
            rounds=result.rounds,
            mapping_utilization=result.mapping_utilization,
            dense_macs=result.dense_macs,
        )
        return output

    def run_maxpool(
        self, activations: np.ndarray, pool: int, stride: Optional[int] = None,
        name: str = "maxpool",
    ) -> np.ndarray:
        """Simulate a max-pooling layer.

        Pooling maps onto flexible fabrics without dedicated SIMD units
        (paper Section III): windows stream through the multipliers
        configured as comparators, one window element per MS per cycle.
        """
        stride = stride or pool
        activations = np.asarray(activations, dtype=np.float32)
        self._start_layer(name, "maxpool")
        with self.obs.profiler.phase("functional"):
            output, comparisons = maxpool_functional(activations, pool, stride)

        before = self._snapshot()
        cycles = 4 + int(np.ceil(comparisons / self.config.num_ms))
        self.gb.record_reads(comparisons)
        self.gb.record_writes(output.size)
        self.gb.counters.add("gb_pool_comparisons", comparisons)
        if self.obs.stalls is not None:
            # windows stream through the comparators after the fixed
            # configuration cycles
            self.obs.stalls.charge("controller", "weight_fill", 4)
            self.obs.stalls.charge("controller", "compute_busy", cycles - 4)
        self._finish_layer(name, "maxpool", before, cycles, 0, output.size, 0.0)
        return output

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _sparse_conv_timing(
        self, weights, group_cols, layer: ConvLayerSpec, round_builder=None
    ):
        """Time a convolution on the sparse fabric as one block-diagonal
        GEMM so filters from every group can pack into the same rounds."""
        groups = layer.g
        k = layer.k
        dot = layer.filter_size
        block = np.zeros((k * groups, dot * groups), dtype=np.float32)
        for g in range(groups):
            w2d = weights[g * k : (g + 1) * k].reshape(k, -1)
            block[g * k : (g + 1) * k, g * dot : (g + 1) * dot] = w2d
        n_cols = group_cols[0].shape[1]
        return self.sparse_controller.run_spmm(block, n_cols, round_builder)
