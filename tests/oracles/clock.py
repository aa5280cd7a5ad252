"""The reference clock: every fabric, one clock at a time, through real queues.

Production prices a layer in closed form: the dense controller
fast-forwards runs of identical pixel steps, the sparse controller times
all rounds of a GEMM as columns, the systolic engine counts tile classes.
Each claims to produce exactly the cycles and counters of a loop that
advances the hardware one clock at a time. This module is that loop, and
the only one: production keeps no per-clock code.

- :func:`run_dense` — a dense layer under the dense controller (MAERI's
  tree DN and ART, or any flexible dense fabric), folded or not. Every
  pixel step of the mapping is enumerated in loop order, for both loop
  orderings the controller weighs when the layer folds, and clocked
  through its stages.
- :func:`run_sparse` — a SIGMA GEMM round by round and column by column,
  the streamed operand dense (single-sided) or sparse (dual-sided).
- :func:`run_systolic` — the output- or weight-stationary array at the
  register level: operands and partial sums shift one PE a clock.

What the loops take from production is the vocabulary, not the sums: the
component classes say what *one* delivery, reduction wave or DRAM record
costs, the round builder says which rows share a round, and the model's
constants (setup, reconfiguration, pipeline overhead) are imported.
Which steps, rounds and tiles exist, how many clocks each lasts and how
many of each there are is worked out here, independently, one event at
a time.

Queues
------

A step clocks until each of its stages has moved its work: the DN
delivers the step's operand slots ``bandwidth`` a clock, a non-pipelined
RN reduces one product a clock, the RN write port drains ``rn_bandwidth``
psums a clock. A step's operand packet passes through the GB->DN staging
:class:`Fifo`.

The GB read ports (:class:`ReadPorts`) are a slot queue drained one clock
at a time, whose busy clocks are the DN's ``dn_busy_cycles``. Operand
requests are posted to it as the controllers post them: one batch per run
of identical steps, per round's stationary load and per round's column
stream. A batch drains inside the clocks of the steps it belongs to, so
the order the batches run in is not observable. Under dual-sided sparsity
the ports are posted the slots that actually arrive, column by column
(ROADMAP 1(c)); the traffic counters stay on the controller's per-step
model, the rounded per-column mean.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config.hardware import Dataflow, HardwareConfig
from repro.config.layer import ConvLayerSpec
from repro.config.tile import TileConfig
from repro.engine.systolic import LAYER_SETUP_CYCLES as ARRAY_SETUP_CYCLES
from repro.engine.systolic import PIPE_OVERHEAD
from repro.errors import MappingError, SimulationError
from repro.memory.dense_controller import LAYER_SETUP_CYCLES
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.memory.sparse_controller import (
    GEMM_SETUP_CYCLES,
    ROUND_RECONFIG_CYCLES,
    natural_order_rounds,
)
from repro.noc.base import CounterSet
from repro.noc.distribution import build_distribution_network
from repro.noc.multiplier import build_multiplier_network
from repro.noc.reduction import build_reduction_network
from repro.tensors.sparse import block_diagonal_csr

#: counters by component name, as ``{c.name: c.counters.as_dict()}``
Counters = Dict[str, Dict[str, int]]


class Fifo:
    """A depth-bounded queue that counts pushes, pops and peak occupancy."""

    def __init__(self, name: str, depth: int) -> None:
        if depth < 1:
            raise SimulationError(f"FIFO {name!r} needs depth >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._items: Deque[Any] = deque()
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self._items

    def push(self, item: Any) -> None:
        if self.is_full:
            raise SimulationError(
                f"push to full FIFO {self.name!r} (depth {self.depth}); the "
                "producer must respect backpressure"
            )
        self._items.append(item)
        self.pushes += 1
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)

    def pop(self) -> Any:
        if self.is_empty:
            raise SimulationError(f"pop from empty FIFO {self.name!r}")
        self.pops += 1
        return self._items.popleft()

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None

    def reset(self) -> None:
        self._items.clear()
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0

    def __repr__(self) -> str:
        return (
            f"Fifo(name={self.name!r}, depth={self.depth}, "
            f"occupancy={len(self._items)})"
        )


class ReadPorts:
    """The GB read ports feeding the DN: a slot queue that hands the
    fabric at most ``bandwidth`` slots a clock."""

    def __init__(self, bandwidth: int) -> None:
        self.bandwidth = bandwidth
        self.pending = 0
        #: clocks in which at least one slot left (``dn_busy_cycles``)
        self.busy = 0

    def post(self, slots: int) -> None:
        self.pending += slots

    def clock(self) -> None:
        if self.pending:
            self.pending -= min(self.bandwidth, self.pending)
            self.busy += 1


@dataclass
class ClockRun:
    """What one layer left behind, clock by clock."""

    cycles: int
    counters: Counters
    #: DN slots still queued when the layer ended
    pending_slots: int = 0
    #: pixel steps (dense) or column steps (sparse) clocked
    steps: int = 0
    #: packets through the GB->DN staging FIFO and its high-water mark
    fifo_pushes: int = 0
    fifo_peak_occupancy: int = 0
    #: the product the array computed (systolic only)
    output: Optional[np.ndarray] = field(default=None, repr=False)


def counters_of(components) -> Counters:
    """A component list's counters in :class:`ClockRun` form."""
    return {c.name: c.counters.as_dict() for c in components}


def _transfer_clocks(work: int, per_clock: int) -> int:
    """Clocks to move ``work`` items ``per_clock`` at a time."""
    clocks = 0
    while work:
        work -= min(per_clock, work)
        clocks += 1
    return clocks


def _stage_clocks(*stages: Tuple[int, int]) -> int:
    """Clock a step until every ``(work, per_clock)`` stage has moved its
    work; a step lasts at least one clock."""
    work = [amount for amount, _ in stages]
    clocks = 0
    while clocks == 0 or any(work):
        work = [
            amount - min(amount, rate)
            for amount, (_, rate) in zip(work, stages)
        ]
        clocks += 1
    return clocks


def _memory(config: HardwareConfig) -> Tuple[GlobalBuffer, Dram]:
    """A fresh Global Buffer and DRAM, as the Accelerator builds them."""
    gb = GlobalBuffer(
        size_kb=config.gb_size_kb,
        banks=config.gb_banks,
        read_bandwidth=config.dn_bandwidth,
        write_bandwidth=config.rn_bandwidth,
        dtype=config.dtype,
    )
    return gb, Dram(config.dram, config.clock_ghz)


def _account_dram(
    gb: GlobalBuffer, dram: Dram, read_bytes: int, write_bytes: int,
    fill: int, compute_clocks: int,
) -> int:
    """Move a layer's footprint through DRAM; returns the stall left after
    double buffering hid what the compute clocks could."""
    dram.record_read(read_bytes)
    dram.record_write(write_bytes)
    gb.record_fill(fill)
    return max(0, dram.transfer_cycles(read_bytes + write_bytes) - compute_clocks)


class _Fabric:
    """A flexible fabric's tiers, the read-port queue and the clock."""

    def __init__(self, config: HardwareConfig, controller: str) -> None:
        self.gb, self.dram = _memory(config)
        self.dn = build_distribution_network(
            config.distribution, config.num_ms, config.dn_bandwidth
        )
        self.mn = build_multiplier_network(config.multiplier, config.num_ms)
        self.rn = build_reduction_network(
            config.reduction, config.num_ms, config.rn_bandwidth,
            config.accumulation_buffer,
        )
        self.ctrl = CounterSet()
        self.controller = controller
        self.ports = ReadPorts(config.dn_bandwidth)
        self.staging = Fifo("gb-dn", config.dn_fifo_depth)
        self.clock = 0

    def tick(self, clocks: int) -> None:
        """Advance ``clocks`` clocks; the read ports drain on every one."""
        for _ in range(clocks):
            self.ports.clock()
            self.clock += 1

    def port_slots(self, unique: int, destinations: int) -> int:
        """Read-port slots of one delivery: a multicast fabric sends each
        value once, a unicast one once per destination."""
        if self.dn.supports_multicast:
            return unique
        return max(unique, destinations)

    def step_clocks(self, slots: int, reduce: int, drain: int) -> int:
        """Clocks of one step: its operand slots through the read ports,
        ``reduce`` clocks of reduction, ``drain`` psums out the RN port."""
        return _stage_clocks(
            (slots, self.dn.bandwidth), (reduce, 1), (drain, self.rn.bandwidth)
        )

    def step(self, slots: int, reduce: int, drain: int) -> None:
        """One step: its operand packet through the staging FIFO, then
        clocked until every stage is done."""
        self.staging.push(slots)
        self.tick(self.step_clocks(self.staging.pop(), reduce, drain))


# ---------------------------------------------------------------------------
# dense layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Step:
    """One pixel step of a dense mapping: what it moves."""

    #: (first step of an output row | later step, earlier fold | last fold)
    kind: Tuple[bool, bool]
    unique: int
    destinations: int
    weight_unique: int
    slots: int
    forwarded: int
    writebacks: int
    outputs: int


class _DenseMapping:
    """A layer's pixel steps under one tile, in either loop ordering."""

    def __init__(self, fabric: _Fabric, layer: ConvLayerSpec, tile: TileConfig):
        self.fabric = fabric
        self.layer = layer
        self.tile = tile
        self.cs = tile.cluster_size
        self.nc = tile.num_clusters
        self.folds = tile.folds_for(layer)
        self.k_iters = math.ceil(layer.k / tile.t_k) * math.ceil(layer.g / tile.t_g)
        self.n_iters = math.ceil(layer.n / tile.t_n)
        self.x_iters = math.ceil(layer.x_out / tile.t_x)
        self.y_iters = math.ceil(layer.y_out / tile.t_y)
        # one phase's stationary weights, multicast to every replica
        unique = self.cs * tile.t_k * tile.t_g
        self.w_destinations = unique * tile.t_n * tile.t_x * tile.t_y
        self.w_unique = (
            unique if fabric.dn.supports_multicast else self.w_destinations
        )

    def orderings(self) -> List[bool]:
        """``fold_inner`` values the controller weighs: the phase order
        always; psums held in the RN accumulators when the layer folds."""
        if self.folds > 1 and self.fabric.rn.has_accumulators:
            return [False, True]
        return [False]

    def weight_loads(self, fold_inner: bool) -> int:
        return self.k_iters * (1 if fold_inner else self.folds)

    def steps(self, fold_inner: bool) -> Iterator[_Step]:
        """Every pixel step, in loop order: filter groups, then folds and
        pixels (phase order) or pixels and folds (fold-inner order)."""
        for _ in range(self.k_iters):
            if fold_inner:
                for _n, _x, y in self._pixels():
                    for fold in range(self.folds):
                        yield self._step(y > 0, fold, fold_inner)
            else:
                for fold in range(self.folds):
                    for _n, _x, y in self._pixels():
                        yield self._step(y > 0, fold, fold_inner)

    def _pixels(self) -> Iterator[Tuple[int, int, int]]:
        for n in range(self.n_iters):
            for x in range(self.x_iters):
                for y in range(self.y_iters):
                    yield n, x, y

    def _step(self, steady: bool, fold: int, fold_inner: bool) -> _Step:
        layer, tile, fabric = self.layer, self.tile, self.fabric
        last_fold = fold == self.folds - 1
        # fold psums leave the RN unless they can wait in its accumulators
        # for the next fold, which only the fold-inner ordering allows
        roundtrip = self.folds > 1 and not (
            fold_inner and fabric.rn.has_accumulators
        )
        replicas = tile.t_g * tile.t_n * tile.t_x * tile.t_y
        window = self.cs
        forwarded = 0
        # a later step of an output row finds its window shifted along the
        # MN's forwarding links; with folds between two pixel steps the
        # latched operands are long overwritten
        latched = not (fold_inner and self.folds > 1)
        if steady and latched and fabric.mn.forwarding and layer.r * layer.s > 1:
            fresh = min(
                tile.t_r * tile.t_c * min(tile.t_y * layer.stride, tile.t_s),
                window,
            )
            forwarded = (window - fresh) * replicas
            window = fresh
        unique = window * replicas
        destinations = unique * tile.t_k
        if not fabric.dn.supports_multicast:
            unique = destinations
        weight_unique = self.w_unique if fold_inner else 0
        slots = unique + weight_unique + (self.nc if roundtrip else 0)
        return _Step(
            kind=(steady, last_fold),
            unique=unique,
            destinations=destinations,
            weight_unique=weight_unique,
            slots=slots,
            forwarded=forwarded,
            writebacks=self.nc if roundtrip and not last_fold else 0,
            outputs=self.nc if last_fold else 0,
        )

    def stage_work(self, step: _Step) -> Tuple[int, int, int]:
        """(read-port slots, reduction clocks, psums out) of one step."""
        rn = self.fabric.rn
        slots = self.fabric.port_slots(
            max(step.slots, 1), max(step.destinations, 1)
        )
        reduce = 1 if rn.pipelined else rn.reduction_latency(self.cs)
        return slots, reduce, step.outputs + step.writebacks

    def weight_clocks(self) -> int:
        slots = self.fabric.port_slots(self.w_unique, self.w_destinations)
        return _transfer_clocks(slots, self.fabric.dn.bandwidth)

    def estimated_clocks(self, fold_inner: bool) -> int:
        """Weight loads plus pixel steps: what the orderings differ in."""
        return self.weight_loads(fold_inner) * self.weight_clocks() + sum(
            self.fabric.step_clocks(*self.stage_work(step))
            for step in self.steps(fold_inner)
        )


def run_dense(
    config: HardwareConfig, layer: ConvLayerSpec, tile: TileConfig
) -> ClockRun:
    """Clock one dense layer under ``tile`` through a fresh fabric."""
    tile.validate_for(layer, config.num_ms)
    fabric = _Fabric(config, "dense-controller")
    mapping = _DenseMapping(fabric, layer, tile)
    dn, mn, rn, gb = fabric.dn, fabric.mn, fabric.rn, fabric.gb
    cs, nc = mapping.cs, mapping.nc
    clusters = [cs] * nc
    mn.configure_clusters(clusters)
    rn.configure_clusters(clusters)
    fabric.ctrl.add("ctrl_layers_run", 1)
    fabric.tick(LAYER_SETUP_CYCLES)

    # the cheaper ordering runs (the phase order on a tie)
    fold_inner = min(mapping.orderings(), key=mapping.estimated_clocks)

    # stationary weight loads, posted as one batch
    loads = mapping.weight_loads(fold_inner)
    dn.enqueue(mapping.w_unique, mapping.w_destinations, times=loads)
    fabric.ports.post(
        fabric.port_slots(mapping.w_unique, mapping.w_destinations) * loads
    )
    for _ in range(loads):
        fabric.tick(mapping.weight_clocks())
        gb.record_reads(mapping.w_unique)

    # pixel steps, a kind at a time: each kind's requests are one batch
    by_kind: Dict[Tuple[bool, bool], List[_Step]] = {}
    for step in mapping.steps(fold_inner):
        by_kind.setdefault(step.kind, []).append(step)
    pushed = popped = 0
    for kind in ((False, False), (False, True), (True, False), (True, True)):
        steps = by_kind.get(kind, [])
        if steps:
            first = mapping.stage_work(steps[0])
            fabric.ports.post(first[0] * len(steps))
        for step in steps:
            slots, reduce, drain = mapping.stage_work(step)
            fabric.step(slots, reduce, drain)
            dn.enqueue(max(step.slots, 1), max(step.destinations, 1))
            gb.record_reads(step.unique + step.weight_unique)
            pushed += step.slots
            popped += step.outputs + step.writebacks
            mn.record_multiplications(cs * nc)
            if step.forwarded:
                mn.record_forwarding(step.forwarded)
            rn.record_cluster_reductions(cs, nc)
            if step.writebacks:
                mn.record_psum_injections(nc)
                rn.record_outputs(step.writebacks)
                gb.record_writes(step.writebacks)
            elif rn.has_accumulators:
                rn.record_accumulations(nc)
            if step.outputs:
                rn.record_outputs(step.outputs)
                gb.record_writes(step.outputs)
    fabric.ctrl.add("ctrl_fifo_pushes", pushed)
    fabric.ctrl.add("ctrl_fifo_pops", popped)

    # the last wave drains: DN traversal, multiply, deepest reduction
    fabric.tick(dn.pipeline_latency + 1 + rn.reduction_latency(cs))

    bpe = config.dtype.bytes_per_element
    weights = layer.num_filters * layer.filter_size
    inputs = layer.n * layer.g * layer.c * layer.x * layer.y
    outputs = layer.num_outputs
    reload = _reload_factor(gb, weights + inputs + outputs)
    fabric.tick(_account_dram(
        gb, fabric.dram, (weights + inputs) * bpe * reload, outputs * bpe,
        weights + inputs, fabric.clock,
    ))
    return _finish(fabric, steps=sum(map(len, by_kind.values())))


def _reload_factor(gb: GlobalBuffer, working_set: int) -> int:
    """Times a working set streams through one double-buffer half."""
    if gb.fits(working_set):
        return 1
    return math.ceil(working_set / gb.half_capacity_elements)


def _finish(fabric: _Fabric, steps: int) -> ClockRun:
    fabric.ctrl.add("ctrl_cycles", fabric.clock)
    components = [fabric.gb, fabric.dram, fabric.dn, fabric.mn, fabric.rn]
    counters = counters_of(components)
    counters[fabric.controller] = fabric.ctrl.as_dict()
    dn_counters = counters[fabric.dn.name]
    dn_counters.pop("dn_busy_cycles", None)
    if fabric.ports.busy:
        dn_counters["dn_busy_cycles"] = fabric.ports.busy
    counters[fabric.dn.name] = dict(sorted(dn_counters.items()))
    return ClockRun(
        cycles=fabric.clock,
        counters=counters,
        pending_slots=fabric.ports.pending,
        steps=steps,
        fifo_pushes=fabric.staging.pushes,
        fifo_peak_occupancy=fabric.staging.peak_occupancy,
    )


# ---------------------------------------------------------------------------
# sparse GEMMs
# ---------------------------------------------------------------------------


def run_sparse(
    config: HardwareConfig,
    stationary: np.ndarray,
    n_cols: int,
    streaming: Optional[np.ndarray] = None,
) -> ClockRun:
    """Clock ``stationary @ streaming`` on a sparse fabric, round by round
    and column by column (natural-order packing)."""
    stationary = np.asarray(stationary)
    fabric = _Fabric(config, "sparse-controller")
    dn, mn, rn, gb = fabric.dn, fabric.mn, fabric.rn, fabric.gb
    bandwidth = dn.bandwidth
    rows, k_dim = stationary.shape
    row_columns = [np.flatnonzero(stationary[row]) for row in range(rows)]
    row_nnz = np.array([len(columns) for columns in row_columns], dtype=np.int64)
    rounds = natural_order_rounds(row_nnz, config.num_ms)
    live = None if streaming is None else np.asarray(streaming) != 0

    fabric.ctrl.add("ctrl_gemms_run", 1)
    fabric.ctrl.add("ctrl_metadata_elements", int(row_nnz.sum()))
    fabric.tick(GEMM_SETUP_CYCLES)
    steps = 0
    for index, chunks in enumerate(rounds):
        sizes = [chunk.length for chunk in chunks]
        mn.configure_clusters(sizes)
        rn.configure_clusters(sizes)
        if index == 0:
            # later reconfigurations hide behind the previous stream
            fabric.tick(ROUND_RECONFIG_CYCLES)
        mapped = [
            row_columns[chunk.row][chunk.start : chunk.start + chunk.length]
            for chunk in chunks
        ]
        support = sorted({int(col) for columns in mapped for col in columns})
        nnz = sum(sizes)
        packed = len(chunks)
        resumed = sum(chunk.start > 0 for chunk in chunks)
        continued = sum(not chunk.is_final for chunk in chunks)

        # the stationary load: the round's nonzeros
        dn.enqueue(nnz, nnz)
        fabric.ports.post(fabric.port_slots(nnz, nnz))
        fabric.tick(_transfer_clocks(fabric.port_slots(nnz, nnz), bandwidth))
        gb.record_reads(nnz)
        fabric.ctrl.add("ctrl_stationary_loads", nnz)

        # the column stream: per column, the support's streamed values
        if live is None:
            arriving = [len(support)] * n_cols
            unique = len(support)
        else:
            arriving = [
                int(np.count_nonzero(live[support, col])) for col in range(n_cols)
            ]
            unique = int(np.rint(np.mean(arriving)))
        per_step = max(unique, 1)
        dn.enqueue(per_step, per_step, times=n_cols)
        fabric.ports.post(sum(max(count, 1) for count in arriving))
        for col, count in enumerate(arriving):
            fabric.step(max(count, 1), 0, packed)
            steps += 1
            if live is None:
                mn.record_multiplications(nnz)
            else:
                mn.record_multiplications(
                    sum(int(np.count_nonzero(live[columns, col]))
                        for columns in mapped)
                )
            for size in sizes:
                rn.record_cluster_reductions(size, 1)
            gb.record_reads(unique + resumed)
            rn.record_accumulations(resumed)
            rn.record_outputs(packed)
            gb.record_writes(packed)
            fabric.ctrl.add("ctrl_fifo_pushes", per_step)
            fabric.ctrl.add("ctrl_fifo_pops", packed)
            fabric.ctrl.add("ctrl_psum_spills", continued)

        # resumed rows merge: re-read their psums, then add them
        merge_reads = resumed * n_cols
        fabric.tick(_transfer_clocks(merge_reads, bandwidth))
        fabric.tick(_transfer_clocks(merge_reads, rn.bandwidth))

    if rounds:
        deepest = max(chunk.length for chunks in rounds for chunk in chunks)
        fabric.tick(dn.pipeline_latency + 1 + rn.reduction_latency(deepest))

    bpe = config.dtype.bytes_per_element
    nnz = int(row_nnz.sum())
    metadata = block_diagonal_csr(stationary, 1).metadata_bits() // 8
    fabric.tick(_account_dram(
        gb, fabric.dram, nnz * bpe + k_dim * n_cols * bpe + metadata,
        rows * n_cols * bpe, nnz + k_dim * n_cols, fabric.clock,
    ))
    return _finish(fabric, steps=steps)


# ---------------------------------------------------------------------------
# the systolic array, register by register
# ---------------------------------------------------------------------------


@dataclass
class _TileEvents:
    """What one tile's registers did, clock by clock."""

    clocks: int = 0
    macs: int = 0
    hops: int = 0
    feeds: int = 0
    outputs: int = 0


def _fits(rows: int, cols: int, dim: int) -> None:
    if rows > dim or cols > dim:
        raise MappingError(
            f"a {rows}x{cols} tile exceeds the {dim}x{dim} PE array"
        )


def os_tile(
    a: np.ndarray, b: np.ndarray, dim: int
) -> Tuple[np.ndarray, _TileEvents]:
    """An ``m x k`` by ``k x n`` tile on a ``dim x dim`` output-stationary
    array.

    A enters skewed at the west edge, B at the north edge; each hops one
    PE a clock and every PE accumulates its output in place. Returns the
    product and the events, the fixed pipeline overhead not included.
    """
    m, k = a.shape
    n = b.shape[1]
    _fits(m, n, dim)
    a_reg = np.zeros((m, n), dtype=np.float64)
    b_reg = np.zeros((m, n), dtype=np.float64)
    a_valid = np.zeros((m, n), dtype=bool)
    b_valid = np.zeros((m, n), dtype=bool)
    acc = np.zeros((m, n), dtype=np.float64)
    # every PE's output drains down the column buses once the wavefront
    # has passed, inside the fixed pipeline overhead
    events = _TileEvents(outputs=m * n)
    rows = np.arange(m)
    cols = np.arange(n)
    while events.macs < m * k * n:
        t = events.clocks
        # one point-to-point hop east / south; values leave the tile edge
        events.hops += int(a_valid[:, :-1].sum() + b_valid[:-1, :].sum())
        a_reg[:, 1:] = a_reg[:, :-1]
        a_valid[:, 1:] = a_valid[:, :-1]
        b_reg[1:, :] = b_reg[:-1, :]
        b_valid[1:, :] = b_valid[:-1, :]
        # skewed injection: row i sees A[i, t - i], column j B[t - j, j]
        a_k = t - rows
        a_valid[:, 0] = (a_k >= 0) & (a_k < k)
        a_reg[:, 0] = np.where(a_valid[:, 0], a[rows, np.clip(a_k, 0, k - 1)], 0)
        b_k = t - cols
        b_valid[0, :] = (b_k >= 0) & (b_k < k)
        b_reg[0, :] = np.where(b_valid[0, :], b[np.clip(b_k, 0, k - 1), cols], 0)
        events.feeds += int(a_valid[:, 0].sum() + b_valid[0, :].sum())
        live = a_valid & b_valid
        acc += np.where(live, a_reg * b_reg, 0)
        events.macs += int(live.sum())
        events.clocks += 1
    return acc, events


def ws_tile(
    a: np.ndarray, w: np.ndarray, dim: int
) -> Tuple[np.ndarray, _TileEvents]:
    """``m`` activation rows through a ``k x n`` weight-stationary tile of
    a ``dim x dim`` array.

    The weights shift in from the north edge, one row a clock, until PE
    ``(i, j)`` holds ``w[i, j]``; then activation row ``r`` enters PE row
    ``i`` at clock ``r + i``, hops east a PE a clock, and every PE adds
    its product to the partial sum arriving from the north and passes it
    south; the south edge emits finished outputs. Returns the product and
    the events, the fixed pipeline overhead not included.
    """
    m, k = a.shape
    n = w.shape[1]
    _fits(k, n, dim)
    events = _TileEvents()
    # preload: after k clocks row i holds w[i]
    w_reg = np.zeros((k, n), dtype=np.float64)
    w_valid = np.zeros((k, n), dtype=bool)
    for t in range(k):
        events.hops += int(w_valid[:-1, :].sum())
        w_reg[1:, :] = w_reg[:-1, :]
        w_valid[1:, :] = w_valid[:-1, :]
        w_reg[0, :] = w[k - 1 - t]
        w_valid[0, :] = True
        events.feeds += n
        events.clocks += 1
    if not np.array_equal(w_reg, w):
        raise SimulationError("weight preload left the wrong weights in place")

    a_reg = np.zeros((k, n), dtype=np.float64)
    a_valid = np.zeros((k, n), dtype=bool)
    p_reg = np.zeros((k, n), dtype=np.float64)
    p_valid = np.zeros((k, n), dtype=bool)
    out = np.zeros((m, n), dtype=np.float64)
    pe_rows = np.arange(k)
    cols = np.arange(n)
    t = 0
    while events.outputs < m * n:
        events.hops += int(a_valid[:, :-1].sum() + p_valid[:-1, :].sum())
        a_reg[:, 1:] = a_reg[:, :-1]
        a_valid[:, 1:] = a_valid[:, :-1]
        stream = t - pe_rows
        a_valid[:, 0] = (stream >= 0) & (stream < m)
        a_reg[:, 0] = np.where(
            a_valid[:, 0], a[np.clip(stream, 0, m - 1), pe_rows], 0
        )
        events.feeds += int(a_valid[:, 0].sum())
        # psums from the north, plus this PE's product
        above = np.zeros((k, n), dtype=np.float64)
        above[1:, :] = p_reg[:-1, :]
        p_reg = np.where(a_valid, above + a_reg * w_reg, 0)
        p_valid = a_valid.copy()
        events.macs += int(a_valid.sum())
        done = t - (k - 1) - cols
        emit = p_valid[k - 1, :]
        out[done[emit], cols[emit]] = p_reg[k - 1, emit]
        events.outputs += int(emit.sum())
        t += 1
    events.clocks += t
    return out, events


def run_systolic(
    config: HardwareConfig, a: np.ndarray, b: np.ndarray
) -> ClockRun:
    """Clock ``a @ b`` tile by tile through the register loops."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    n = b.shape[1]
    dim = config.systolic_dim
    stationary = config.dataflow is Dataflow.WEIGHT_STATIONARY
    gb, dram = _memory(config)
    array = CounterSet()
    output = np.zeros((m, n), dtype=np.float64)
    clock = ARRAY_SETUP_CYCLES
    for j in range(0, n, dim):
        for i in range(0, k if stationary else m, dim):
            if stationary:
                part, events = ws_tile(
                    a[:, i : i + dim], b[i : i + dim, j : j + dim], dim
                )
                output[:, j : j + dim] += part
            else:
                part, events = os_tile(a[i : i + dim], b[:, j : j + dim], dim)
                output[i : i + dim, j : j + dim] = part
            clock += events.clocks + PIPE_OVERHEAD
            array.add("mn_multiplications", events.macs)
            array.add("mn_forwarding_hops", events.hops)
            array.add("rn_accumulator_ops", events.macs)
            array.add("rn_outputs_written", events.outputs)
            array.add("dn_wire_traversals", events.feeds)
            gb.record_reads(events.feeds)
            gb.record_writes(events.outputs)

    bpe = config.dtype.bytes_per_element
    reload = _reload_factor(gb, m * k + k * n + m * n)
    clock += _account_dram(
        gb, dram, (m * k + k * n) * bpe * reload, m * n * bpe, m * k + k * n,
        clock,
    )
    array.add("ctrl_cycles", clock)
    counters = counters_of([gb, dram])
    counters["systolic"] = array.as_dict()
    return ClockRun(cycles=clock, counters=counters, output=output)
