"""The top-level ``Accelerator`` class (paper Fig. 4).

An ``Accelerator`` composes the building blocks a
:class:`~repro.config.HardwareConfig` selects — distribution / multiplier
/ reduction networks, Global Buffer, DRAM and a memory controller (or the
systolic engine for point-to-point configurations) — and exposes the
operations of the STONNE API: convolutions, GEMMs, sparse GEMMs and
pooling. Every operation is two halves. The *functional* half (the real
output tensor, which is what enables full-model evaluation and
data-dependent optimizations) is the ``run_*`` front end of
:class:`OperationFrontEnd`, which the parallel runner's recorder shares.
The *microarchitectural* half (the cycle count and per-component
activity recorded in the simulation report) is :meth:`Accelerator.time`,
the one timing entry point of serial runs and of the model runner's
cache misses alike. It reads operand shapes only, and operand
values only where timing is data-dependent (the stationary matrix on a
sparse fabric): it computes no tensor.

A serial run times each distinct layer once: when the parallel runner's
fold rule holds (no metrics recorder on, value-independent timing), the
accelerator's front end gives a repeat of an already-timed layer the
first one's report under its own name, advances every counter file and
clock by what the first one added and, under a tracer, replays the first
one's trace records at its own base, as the runner folds repeated shapes
(:meth:`Accelerator._offload`).
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.hardware import ControllerKind, HardwareConfig
from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.config.tile import TileConfig
from repro.engine.mapper import Mapper
from repro.engine.stats import LayerReport, SimulationReport
from repro.engine.systolic import SystolicEngine
from repro.engine.workload import DATA_DEPENDENT_KINDS, LayerWorkload
from repro.errors import ConfigurationError, MappingError, SimulationError
from repro.memory.dense_controller import DenseController
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.memory.sparse_controller import RoundBuilder, SparseController
from repro.noc.base import CounterSet
from repro.observability.context import (
    TRACE_COUNTER_SERIES, LayerHostTime, Observability,
)
from repro.noc.distribution import build_distribution_network
from repro.noc.multiplier import build_multiplier_network
from repro.noc.reduction import build_reduction_network
from repro.tensors.im2col import col2im_output, conv2d_output_shape, im2col
from repro.tensors.sparse import BitmapMatrix, CsrMatrix

# re-exported for convenience
__all__ = [
    "Accelerator",
    "LayerReport",
    "OperationFrontEnd",
    "conv_layer_spec",
    "conv_functional",
    "gemm_functional",
    "maxpool_functional",
]

# ----------------------------------------------------------------------
# the functional half: module-level helpers + the one `run_*` front end
# ----------------------------------------------------------------------
def conv_layer_spec(
    weights: np.ndarray,
    activations: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    name: str = "conv",
) -> ConvLayerSpec:
    """Validate conv operand shapes and derive the layer descriptor."""
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Real-valued convolution via im2col; returns ``(output, group_cols)``.

    ``group_cols`` is one ``(groups, C*R*S, N*X'*Y')`` view of the unfold:
    ``group_cols[g]`` is group ``g``'s column matrix.
    """
    k = layer.k
    crs = layer.filter_size
    # one unfold over all channels: rows are (c, r, s)-ordered, so a
    # group's column matrix is a C-contiguous row slice
    cols = im2col(activations, layer.r, layer.s, stride, padding)
    group_cols = cols.reshape(groups, crs, -1)
    out = np.matmul(weights.reshape(groups, k, crs), group_cols).reshape(
        groups * k, -1
    )
    return col2im_output(out, layer.n, layer.x_out, layer.y_out), group_cols


def gemm_functional(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real-valued dense matrix multiplication."""
    return (a @ b).astype(np.float32, copy=False)


def _index_param(
    operation: str, name: str, value: Any, minimum: Optional[int] = None
) -> int:
    """``value`` as a plain ``int`` (NumPy integers included), at least
    ``minimum`` when given; anything else is a ConfigurationError that
    names the parameter."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{operation} {name} must be an integer, got {name}={value!r}"
        ) from None
    if minimum is not None and index < minimum:
        raise ConfigurationError(
            f"{operation} needs {name} >= {minimum}, got {name}={value!r}"
        )
    return index


def _not_numeric(operation: str, **operands: Any) -> ConfigurationError:
    """The error for the first of ``operands`` that NumPy cannot read as a
    float32 array (a string, ragged or otherwise non-numeric operand),
    naming it. Built only once a conversion has failed, so the operands'
    normal path stays one ``np.asarray`` each."""
    for name, value in operands.items():
        try:
            np.asarray(value, dtype=np.float32)
        except (TypeError, ValueError) as error:
            return ConfigurationError(
                f"{operation} operand {name} must be a numeric array: {error}"
            )
    return ConfigurationError(f"{operation} operands must be numeric arrays")


def _check_tile(tile: Any) -> None:
    if tile is not None and not isinstance(tile, TileConfig):
        raise ConfigurationError(
            f"tile must be a TileConfig or None, got tile={tile!r}"
        )


def maxpool_output_shape(
    shape: Tuple[int, ...], pool: int, stride: int
) -> Tuple[int, int, int, int]:
    """Validate a max-pool and derive its ``(n, c, x', y')`` output shape."""
    if len(shape) != 4:
        raise ConfigurationError(
            f"maxpool expects a (N, C, X, Y) tensor, got shape {shape}"
        )
    if pool < 1 or stride < 1:
        raise ConfigurationError(
            f"maxpool needs pool >= 1 and stride >= 1, got pool={pool} "
            f"stride={stride}"
        )
    n, c, x, y = shape
    if n < 1 or c < 1:
        raise ConfigurationError(
            f"maxpool needs a non-empty batch and channel axis, got shape "
            f"{shape}"
        )
    if pool > x or pool > y:
        raise ConfigurationError(
            f"maxpool window {pool}x{pool} is larger than the {x}x{y} input"
        )
    return (n, c, *conv2d_output_shape(x, y, pool, pool, stride))


def maxpool_functional(
    activations: np.ndarray, pool: int, stride: int
) -> Tuple[np.ndarray, int]:
    """Real-valued max pooling; returns (output, window comparisons)."""
    n, c, xo, yo = maxpool_output_shape(activations.shape, pool, stride)
    planes = activations.reshape(n * c, 1, *activations.shape[2:])
    cols = im2col(planes, pool, pool, stride, 0)
    output = cols.max(axis=0).reshape(n * c, xo, yo).reshape(n, c, xo, yo)
    return output, int(cols.size)


class OperationFrontEnd:
    """Coerce, validate, compute, describe — then :meth:`time`.

    The surface a :class:`~repro.frontend.simulated.SimulationContext`
    touches (with ``sparse_controller``, which subclasses set). What
    ``time`` does is the only difference between its two subclasses —
    the :class:`Accelerator` simulates the workload, the parallel
    runner's recorder keeps it — so outputs, validation errors and
    workloads are the same bytes on every execution path.
    """

    def __init__(
        self,
        config: HardwareConfig,
        observability: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.obs = observability if observability is not None else Observability()
        self._offloaded = 0

    def time(self, workload: LayerWorkload) -> Any:
        """The microarchitectural half: what becomes of a workload."""
        raise NotImplementedError

    def _record(
        self,
        kind: str,
        name: str,
        params: Dict[str, Any],
        operands: Dict[str, Any],
    ) -> LayerWorkload:
        """The next offloaded operation as a workload."""
        data_dependent = kind in DATA_DEPENDENT_KINDS or self.config.is_sparse
        workload = LayerWorkload(
            self._offloaded, kind, name, params, operands, data_dependent
        )
        self._offloaded += 1
        return workload

    def _offload(
        self,
        kind: str,
        name: str,
        params: Dict[str, Any],
        operands: Dict[str, Any],
    ) -> None:
        self.time(self._record(kind, name, params, operands))

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
        stride = _index_param("conv", "stride", stride, minimum=1)
        padding = _index_param("conv", "padding", padding, minimum=0)
        groups = _index_param("conv", "groups", groups, minimum=1)
        _check_tile(tile)
        try:
            weights = np.asarray(weights, dtype=np.float32)
            activations = np.asarray(activations, dtype=np.float32)
        except (TypeError, ValueError):
            raise _not_numeric(
                "conv", weights=weights, activations=activations
            ) from None
        layer = conv_layer_spec(
            weights, activations, stride=stride, padding=padding,
            groups=groups, name=name,
        )
        output, _ = conv_functional(
            weights, activations, stride, padding, groups, layer
        )
        self._offload(
            "conv", name,
            {"stride": stride, "padding": padding, "groups": groups,
             "tile": tile, "round_builder": round_builder},
            {"weights": weights, "inputs": activations},
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
        _check_tile(tile)
        try:
            a = np.asarray(a, dtype=np.float32)
            b = np.asarray(b, dtype=np.float32)
        except (TypeError, ValueError):
            raise _not_numeric("gemm", a=a, b=b) from None
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible GEMM operands {a.shape} @ {b.shape}"
            )
        # the returned output is always the functional product, whatever
        # engine times the layer — outputs are identical across engines
        output = gemm_functional(a, b)
        self._offload("gemm", name, {"tile": tile}, {"weights": a, "inputs": b})
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
        dense_a = a.to_dense() if isinstance(a, (BitmapMatrix, CsrMatrix)) else a
        try:
            b = np.asarray(b, dtype=np.float32)
            dense_a = np.asarray(dense_a, dtype=np.float32)
        except (TypeError, ValueError):
            raise _not_numeric("spmm", b=b, a=dense_a) from None
        if dense_a.ndim != 2 or b.ndim != 2 or dense_a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible SpMM operands {dense_a.shape} @ {b.shape}"
            )
        output = gemm_functional(dense_a, b)
        self._offload(
            "spmm", name,
            {"round_builder": round_builder,
             "sparse_streaming": sparse_streaming},
            {"weights": a, "inputs": b},
        )
        return output

    def run_maxpool(
        self,
        activations: np.ndarray,
        pool: int,
        stride: Optional[int] = None,
        name: str = "maxpool",
    ) -> np.ndarray:
        """Simulate a max-pooling layer.

        Pooling maps onto flexible fabrics without dedicated SIMD units
        (paper Section III): windows stream through the multipliers
        configured as comparators, one window element per MS per cycle.
        """
        pool = _index_param("maxpool", "pool", pool)
        stride = pool if stride is None else _index_param(
            "maxpool", "stride", stride
        )
        try:
            activations = np.asarray(activations, dtype=np.float32)
        except (TypeError, ValueError):
            raise _not_numeric("maxpool", activations=activations) from None
        output, _ = maxpool_functional(activations, pool, stride)
        self._offload(
            "maxpool", name, {"pool": pool, "stride": stride},
            {"inputs": activations},
        )
        return output


#: a timing branch: (cycles, macs, outputs, utilization, report extras)
_Timing = Tuple[int, int, int, float, Dict[str, Any]]


#: per component a layer touched: (the component, its part of the
#: layer's counters, how far the layer advanced its clock)
_Parts = Tuple[Tuple[Any, CounterSet, int], ...]


class _Fold:
    """What the first timing of a foldable layer left behind."""

    __slots__ = ("layer", "parts", "trace", "base")

    def __init__(
        self,
        layer: LayerReport,
        parts: _Parts,
        trace: Optional[List[Any]],
        base: int,
    ) -> None:
        self.layer = layer
        self.parts = parts
        #: the trace records the timing stored inside its layer span (the
        #: span itself, closed last, is left out); ``None`` untraced
        self.trace = trace
        #: the cycle the layer started at
        self.base = base


class Accelerator(OperationFrontEnd):
    """One simulated accelerator instance."""

    def __init__(
        self,
        config: HardwareConfig,
        observability: Optional[Observability] = None,
    ) -> None:
        super().__init__(config, observability)
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
        #: the serial front end's fold table: fold key → the first timing
        self._folds: Dict[Tuple, _Fold] = {}
        #: the fold :meth:`_offload` hands :meth:`time` for one call
        self._replay: Optional[_Fold] = None
        #: how many counter names the components held when no name was
        #: last found in two of them
        self._names = 0

    # ------------------------------------------------------------------
    # the configured components (Fig. 4)
    # ------------------------------------------------------------------
    @property
    def components(self) -> List:
        return list(self._components)

    def reset(self) -> None:
        for component in self._components:
            component.reset()
        self.report = SimulationReport(self.config)
        self._offloaded = 0
        self._folds.clear()
        self._names = 0

    def _snapshot(self) -> CounterSet:
        # every counter name belongs to one component (union enforces it)
        return CounterSet.union([c.counters for c in self._components])

    def _check_names(self) -> None:
        """Raise if a counter name is recorded by two components.

        Names are only ever added to a counter file, so when the files
        hold as many names together as when the union last found them
        disjoint, they still are: the union runs only after one grew."""
        names = sum(len(component.counters) for component in self._components)
        if names != self._names:
            self._snapshot()
            self._names = names

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

    def _close_layer_span(
        self, cycles: int, macs: int, utilization: float
    ) -> None:
        """Close the span :meth:`_start_layer` opened, ``cycles`` on."""
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.end(
                self.obs.base + cycles,
                cycles=cycles, macs=macs,
                utilization=round(utilization, 6),
            )

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
        self._close_layer_span(cycles, macs, utilization)
        self.obs.end_layer(cycles, name, kind)
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
        after = self._snapshot()
        self._names = len(after)
        delta = after.diff(before)
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
    # the serial front end's fold (the run_* front ends are inherited)
    # ------------------------------------------------------------------
    def _offload(
        self,
        kind: str,
        name: str,
        params: Dict[str, Any],
        operands: Dict[str, Any],
    ) -> None:
        """Time the operation, or replay the first timing of its twin.

        The parallel runner's fold rule: unless the metrics recorder is on
        (:attr:`Observability.folds_repeats`), a value-independent
        workload whose :meth:`LayerWorkload.fold_key` (and lens set and,
        traced, open-span depth) an earlier one since the last
        :meth:`reset` had is not timed again. Its report is the first
        one's under its own name, every component's counter file and
        clock advance by what the first timing added, the layer still
        opens its window at its base, a tracer gets the first timing's
        records shifted onto it, and its host-time row says
        ``deduplicated``. The model runner and direct callers of
        :meth:`time` never reach the table: ``time`` times every call of theirs.
        """
        workload = self._record(kind, name, params, operands)
        obs = self.obs
        if workload.data_dependent or not obs.folds_repeats:
            self.time(workload)
            return
        tracer = obs.tracer
        traced = tracer.enabled
        # a record's depth counts the spans open around its layer
        key = (workload.fold_key(), obs.stalls is not None,
               obs.fabric is not None, tracer.open_spans if traced else None)
        fold = self._folds.get(key)
        if fold is None:
            components = self._components
            clocks = [component._current_cycle for component in components]
            mark = tracer.stored if traced else 0
            layer = self.time(workload)
            parts = []
            for component, clock in zip(components, clocks):
                part = layer.counters.restricted_to(component.counters)
                advance = component._current_cycle - clock
                if part or advance:
                    parts.append((component, part, advance))
            self._folds[key] = _Fold(
                layer, tuple(parts),
                # the layer span, closed last, each repeat closes anew
                tracer.stored_since(mark)[:-1] if traced else None,
                obs.base,
            )
            return
        # handed to `time` rather than replayed here, so a serial run
        # still passes every workload through `time`
        self._replay = fold
        try:
            self.time(workload)
        finally:
            self._replay = None

    def _replay_fold(self, workload: LayerWorkload, fold: _Fold) -> LayerReport:
        """Append ``fold``'s report as ``workload``'s, leaving what timing
        the workload would have left."""
        name, kind = workload.name, workload.kind
        self._start_layer(name, kind)
        # the check every timing makes: no counter name in two components
        self._check_names()
        first = fold.layer
        for component, part, cycles in fold.parts:
            component.counters.merge(part)
            component._current_cycle += cycles
        if fold.trace is not None:
            self.obs.tracer.extend(fold.trace, self.obs.base - fold.base)
            self._close_layer_span(
                first.cycles, first.macs, first.multiplier_utilization
            )
        layer = LayerReport(
            name, kind, first.cycles, first.macs, first.outputs,
            first.multiplier_utilization, first.counters.copy(),
            dict(first.extra),
        )
        self.obs.host_time.append(
            LayerHostTime(name, kind, layer.cycles, None, "deduplicated")
        )
        self.report.append(layer)
        return layer

    # ------------------------------------------------------------------
    # the microarchitectural half
    # ------------------------------------------------------------------
    def time(self, workload: LayerWorkload) -> LayerReport:
        """Simulate one workload's timing; appends and returns its report.

        Dense hardware reads operand shapes only; a sparse fabric also
        reads the stationary operand's values (round packing) and, under
        ``sparse_streaming``, the streamed one's. No output is computed.
        Only a repeat :meth:`_offload` hands over is replayed instead.
        """
        if self._replay is not None:
            return self._replay_fold(workload, self._replay)
        kind, name = workload.kind, workload.name
        if kind not in ("conv", "gemm", "spmm", "maxpool"):
            raise SimulationError(f"unknown workload kind {kind!r}")
        self._start_layer(name, kind)
        before = self._snapshot()
        if kind == "conv":
            timing = self._time_conv(workload)
        elif kind == "gemm":
            timing = self._time_gemm(workload)
        elif kind == "spmm":
            timing = self._time_spmm(workload)
        else:
            timing = self._time_maxpool(workload)
        cycles, macs, outputs, utilization, extra = timing
        return self._finish_layer(
            name, kind, before, cycles, macs, outputs, utilization, **extra
        )

    def _time_conv(self, workload: LayerWorkload) -> _Timing:
        params = workload.params
        weights = workload.operands["weights"]
        groups = params["groups"]
        layer = conv_layer_spec(
            weights, workload.operands["inputs"], stride=params["stride"],
            padding=params["padding"], groups=groups, name=workload.name,
        )
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
            return cycles, macs, layer.num_outputs, utilization, {}
        if self.sparse_controller is not None:
            # one block-diagonal GEMM (the controller lays the stacked
            # filters out), so filters from every group can pack into the
            # same rounds
            sparse = self.sparse_controller.time_spmm(
                weights.reshape(layer.k * groups, layer.filter_size),
                layer.to_gemm().n, params.get("round_builder"), groups=groups,
            )
            return (sparse.cycles, sparse.effective_macs, layer.num_outputs,
                    sparse.multiplier_utilization, {})
        chosen = self.mapper.tile_for_conv(layer, params["tile"])
        dense = self.dense_controller.run_conv(layer, chosen)
        return (dense.cycles, dense.macs, layer.num_outputs,
                dense.multiplier_utilization, {})

    def _time_gemm(self, workload: LayerWorkload) -> _Timing:
        a = workload.operands["weights"]
        gemm = GemmSpec(
            m=a.shape[0], n=workload.operands["inputs"].shape[1],
            k=a.shape[1], name=workload.name,
        )
        if self.systolic is not None:
            result = self.systolic.time_gemm(gemm.m, gemm.k, gemm.n)
        elif self.sparse_controller is not None:
            sparse = self.sparse_controller.time_spmm(a, gemm.n)
            return (sparse.cycles, sparse.effective_macs, gemm.num_outputs,
                    sparse.multiplier_utilization, {})
        else:
            chosen = self.mapper.tile_for_gemm(gemm, workload.params["tile"])
            result = self.dense_controller.run_gemm(gemm, chosen)
        return (result.cycles, result.macs, gemm.num_outputs,
                result.multiplier_utilization, {})

    def _time_spmm(self, workload: LayerWorkload) -> _Timing:
        params = workload.params
        b = workload.operands["inputs"]
        result = self.sparse_controller.time_spmm(
            workload.operands["weights"], b.shape[1],
            params.get("round_builder"),
            streaming=b if params.get("sparse_streaming") else None,
        )
        return (
            result.cycles, result.effective_macs, result.outputs,
            result.multiplier_utilization,
            {"rounds": result.rounds,
             "mapping_utilization": result.mapping_utilization,
             "dense_macs": result.dense_macs},
        )

    def _time_maxpool(self, workload: LayerWorkload) -> _Timing:
        pool = workload.params["pool"]
        n, c, xo, yo = maxpool_output_shape(
            workload.operands["inputs"].shape, pool, workload.params["stride"]
        )
        # one comparison per window element, one window per output
        outputs = n * c * xo * yo
        comparisons = pool * pool * outputs
        cycles = 4 + int(np.ceil(comparisons / self.config.num_ms))
        self.gb.record_reads(comparisons)
        self.gb.record_writes(outputs)
        self.gb.counters.add("gb_pool_comparisons", comparisons)
        if self.obs.stalls is not None:
            # windows stream through the comparators after the fixed
            # configuration cycles
            self.obs.stalls.charge("controller", "weight_fill", 4)
            self.obs.stalls.charge("controller", "compute_busy", cycles - 4)
        return cycles, 0, outputs, 0.0, {}
