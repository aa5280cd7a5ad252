"""Dense memory controller (mRNA-inspired, paper Section IV-B).

Orchestrates a convolution (or GEMM, as a degenerate convolution) over the
fabric according to a fixed :class:`~repro.config.tile.TileConfig`. The
controller walks the layer with nested internal counters — the
Buffets-style address generation the paper describes — and advances the
accelerator clock with *cycle-exact fast-forwarding*: within one steady
phase every pixel step costs the same deterministic number of cycles, so
the controller accounts whole phases at once while producing the same
totals a one-cycle-at-a-time loop would (the test suite checks this
against the clock loop of ``tests/oracles/clock.py``).

Timing model
------------

A *step* processes one wave of operands through the three network tiers:

1. The DN delivers the step's **new** unique operands, consuming
   ``ceil(slots / bandwidth)`` cycles of GB read ports. Multicast fabrics
   charge one slot per unique value (inputs shared by the ``T_K`` filters
   of a cluster group count once); the linear MN's forwarding links make
   consecutive sliding-window steps cheaper (only the fresh columns of the
   receptive field arrive through the DN).
2. The MN multiplies (one cycle, pipelined).
3. The RN reduces each cluster. Tree RNs are wave-pipelined; the linear RN
   serializes ``cluster_size`` accumulations per step.
4. Completed outputs drain through the RN output port at
   ``rn_bandwidth`` elements/cycle.

A step therefore occupies ``max(delivery, reduction throughput, drain)``
cycles — the pipeline runs at the pace of its slowest stage, which is how
bandwidth starvation produces the stalls of Fig. 1b.

Dataflows
---------

- *Weight-stationary* (MAERI-like default): weights for one
  ``(filter-group, fold)`` phase stay in the MSs while all output pixels
  stream. With more than one fold, partial sums round-trip through the
  Global Buffer (written by the RN, re-injected through forwarder MSs).
- *Output-stationary*: folds iterate innermost with psums held in the RN
  accumulators (or round-tripping if the RN has none); weights are
  re-delivered every fold of every pixel step.
- *Input-stationary*: inputs pinned, weights stream; psum traffic follows
  the weight-stationary pattern.

One timing path
---------------

:meth:`DenseController._run` is the only dense timing body. A layer is at most four steady-phase segments of
identical steps plus the stationary weight loads
(:meth:`DenseController._plan`), and each segment is fast-forwarded
through the live DN queue (``enqueue(..., times=repeats)`` →
``skip_cycles``). That sequencing is already closed-form:

- **DN queue** — within one segment ``slots * repeats`` bandwidth slots
  are enqueued and ``step_cycles * repeats`` cycles skipped.
  ``step_cycles >= delivery_cycles = ceil(slots / bandwidth)`` by
  construction, so the skip always fully drains the queue: the busy
  count is ``min(step_cycles * repeats, ceil(slots * repeats /
  bandwidth))`` and segments never interact through leftover pending
  work. Weight loads drain identically.
- **counters** — every ``record_*`` / ``counters.add`` is a pure sum
  scaled by ``repeats``; :class:`~repro.noc.base.CounterSet` serializes
  sorted, making add order unobservable.

So there is no batched variant to select: one measured no faster
(``memory.dense_ctrl_s`` 0.035 s for this loop vs 0.038 s batched on the
``benchmarks/perf`` dense sweeps). The per-clock oracle is
``tests/oracles/clock.py``: it enumerates every pixel step of both loop
orderings, folded layers included, and clocks them through real queues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from repro.config.hardware import Dataflow, HardwareConfig
from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.config.tile import TileConfig
from repro.errors import MappingError
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.noc.base import ClockedComponent
from repro.noc.distribution import DistributionNetwork
from repro.noc.multiplier import MultiplierNetwork
from repro.noc.reduction import ReductionNetwork
from repro.observability.fabric import FabricLedger
from repro.observability.stalls import StallLedger

#: fixed cycles for the Configuration Unit to program a layer's signals
LAYER_SETUP_CYCLES = 4


@dataclass(frozen=True)
class DenseRunResult:
    """Summary of one dense layer execution."""

    cycles: int
    macs: int
    outputs: int
    steps: int
    stall_cycles: int
    dram_stall_cycles: int
    multiplier_utilization: float

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


class _StepCost(NamedTuple):
    """Deterministic cost of one pixel step inside a steady phase."""

    dn_slots: int
    unique_values: int
    destinations: int
    forwarded: int
    psum_writebacks: int
    outputs_completed: int
    weight_unique: int = 0


class _Plan(NamedTuple):
    """One loop ordering of a layer, priced.

    ``segments`` is the steady-phase table: ``(cost, repeats,
    step_cycles)`` per run of identical pixel steps, empty runs dropped.
    It is computed once, by :meth:`DenseController._plan`, and is the
    single form timing, span emission, :meth:`~DenseController.
    _charge_stalls` and :meth:`~DenseController._charge_fifos` consume.
    """

    segments: List[Tuple[_StepCost, int, int]]
    weight_loads: int
    w_unique: int
    w_dests: int
    w_cycles: int
    total_steps: int

    def estimated_cycles(self) -> int:
        """Weight loads plus steady phases — what the orderings differ in."""
        return self.w_cycles * self.weight_loads + sum(
            step_cycles * repeats for _, repeats, step_cycles in self.segments
        )


class DenseController(ClockedComponent):
    """Fixed-tile dense orchestration over a DN/MN/RN composition."""

    def __init__(
        self,
        config: HardwareConfig,
        dn: DistributionNetwork,
        mn: MultiplierNetwork,
        rn: ReductionNetwork,
        gb: GlobalBuffer,
        dram: Dram,
        name: str = "dense-controller",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.dn = dn
        self.mn = mn
        self.rn = rn
        self.gb = gb
        self.dram = dram

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def run_conv(self, layer: ConvLayerSpec, tile: TileConfig) -> DenseRunResult:
        """Simulate one convolution layer; returns the timing summary."""
        tile.validate_for(layer, self.mn.num_ms)
        return self._run(layer, tile)

    def run_gemm(self, gemm: GemmSpec, tile: TileConfig) -> DenseRunResult:
        """Simulate a GEMM as a 1x1 convolution over a 1xN output map."""
        layer = ConvLayerSpec(
            r=1, s=1, c=gemm.k, k=gemm.m, g=1, n=1, x=1, y=gemm.n,
            stride=1, name=gemm.name or "gemm",
        )
        conv_tile = TileConfig(
            t_c=tile.cluster_size,
            t_k=tile.t_k,
            t_y=tile.t_y * tile.t_x * tile.t_n,
        )
        conv_tile.validate_for(layer, self.mn.num_ms)
        return self._run(layer, conv_tile)

    # ------------------------------------------------------------------
    # the timing engine
    # ------------------------------------------------------------------
    def _run(self, layer: ConvLayerSpec, tile: TileConfig) -> DenseRunResult:
        obs = self.obs
        plan = self._plan(layer, tile)
        cs = tile.cluster_size
        nc = tile.num_clusters

        tracer = obs.tracer
        base = obs.base
        self.counters.add("ctrl_layers_run", 1)
        cycles = LAYER_SETUP_CYCLES
        if tracer.enabled:
            tracer.span("CTRL:setup", self.name, base, base + cycles)

        load_cycles = self._account_weight_loads(plan)
        if tracer.enabled and load_cycles:
            tracer.span(
                "DN:weight-load", self.dn.name, base + cycles,
                base + cycles + load_cycles,
                unique=plan.w_unique, loads=plan.weight_loads,
            )
        cycles += load_cycles
        obs.sample(cycles)

        stall_cycles = 0
        for cost, repeats, step_cycles in plan.segments:
            segment = step_cycles * repeats
            stall = (step_cycles - 1) * repeats
            self._account_steps(cost, cs, nc, repeats, step_cycles)
            if tracer.enabled:
                start, end = base + cycles, base + cycles + segment
                tracer.span(
                    "DN:deliver", self.dn.name, start, end,
                    steps=repeats, slots_per_step=cost.dn_slots,
                    stall_cycles=stall,
                )
                tracer.span(
                    "MN:multiply", self.mn.name, start, end,
                    multiplications=cs * nc * repeats,
                    forwarded=cost.forwarded * repeats,
                )
                tracer.span(
                    "RN:reduce", self.rn.name, start, end,
                    outputs=cost.outputs_completed * repeats,
                    psum_writebacks=cost.psum_writebacks * repeats,
                )
            cycles += segment
            stall_cycles += stall
            obs.sample(cycles)

        # Pipeline fill/drain: one DN traversal, the multiply stage and
        # the deepest reduction still in flight at the end of the run.
        drain = self.dn.pipeline_latency + 1 + self.rn.reduction_latency(cs)
        if tracer.enabled:
            tracer.span(
                "CTRL:pipeline-drain", self.name, base + cycles,
                base + cycles + drain,
            )
        cycles += drain

        dram_stall = self._account_dram(layer, cycles)
        if tracer.enabled and dram_stall:
            tracer.span(
                "DRAM:stall", self.dram.name, base + cycles,
                base + cycles + dram_stall,
            )
        cycles += dram_stall
        obs.sample(cycles)

        ledger = obs.stalls
        if ledger is not None:
            self._charge_stalls(
                ledger, cs, load_cycles, plan.segments, drain, dram_stall
            )
        fabric = obs.fabric
        if fabric is not None:
            self._charge_fifos(fabric, plan.segments)

        macs = layer.num_macs
        utilization = macs / (self.mn.num_ms * cycles) if cycles else 0.0
        self._current_cycle += cycles
        self.counters.add("ctrl_cycles", cycles)
        return DenseRunResult(
            cycles=cycles,
            macs=macs,
            outputs=layer.num_outputs,
            steps=plan.total_steps,
            stall_cycles=stall_cycles,
            dram_stall_cycles=dram_stall,
            multiplier_utilization=utilization,
        )

    def _plan(self, layer: ConvLayerSpec, tile: TileConfig) -> _Plan:
        """Choose the loop ordering and price its steady-phase segments."""
        cs = tile.cluster_size
        folds = tile.folds_for(layer)
        k_iters = math.ceil(layer.k / tile.t_k) * math.ceil(layer.g / tile.t_g)
        n_iters = math.ceil(layer.n / tile.t_n)
        x_iters = math.ceil(layer.x_out / tile.t_x)
        y_iters = math.ceil(layer.y_out / tile.t_y)
        pixel_steps = n_iters * x_iters * y_iters
        if pixel_steps == 0 or k_iters == 0 or folds == 0:
            raise MappingError("degenerate layer/tile combination")

        self._configure_fabric(tile)

        # Two candidate loop orderings exist when the layer folds:
        #
        # - *phase* order (weight/input stationary): weights pinned per
        #   (k-group, fold) phase while all pixels stream; fold psums
        #   round-trip through the Global Buffer.
        # - *fold-inner* order (output stationary): psums stay in the RN
        #   accumulators while each step re-streams its fold weights
        #   through double-buffered stationary registers.
        #
        # The controller — like the mRNA mapper — evaluates both and runs
        # the cheaper one.
        w_unique, w_dests = self._weight_delivery(tile)
        w_cycles = self.dn.delivery_cycles(w_unique, w_dests)

        full_pixels_per_k = n_iters * x_iters
        steady_pixels_per_k = pixel_steps - full_pixels_per_k

        def build_plan(fold_inner: bool) -> _Plan:
            if fold_inner:
                dataflow = Dataflow.OUTPUT_STATIONARY
            else:
                dataflow = self.config.dataflow
                if dataflow is Dataflow.OUTPUT_STATIONARY:
                    dataflow = Dataflow.WEIGHT_STATIONARY
            roundtrip = self._needs_psum_roundtrip(folds, dataflow)
            # one segment per (first | steady pixel step) x (earlier |
            # last fold) combination that occurs
            segments = []
            for steady, pixels in (
                (False, full_pixels_per_k), (True, steady_pixels_per_k)
            ):
                for tail, phases in ((False, folds - 1), (True, 1)):
                    repeats = k_iters * phases * pixels
                    if repeats <= 0:
                        continue
                    cost = self._step_cost(
                        layer, tile, steady, tail, roundtrip,
                        weight_unique=w_unique if fold_inner else 0,
                        # sliding-window reuse needs the previous pixel
                        # step's operands still latched; with folds
                        # interleaved between pixel steps the registers
                        # have been overwritten `folds` times, so
                        # fold-inner ordering forfeits the forwarding
                        # discount
                        allow_forwarding=not (fold_inner and folds > 1),
                    )
                    segments.append(
                        (cost, repeats, max(1, *self._step_stages(cost, cs)))
                    )
            return _Plan(
                segments=segments,
                weight_loads=k_iters if fold_inner else k_iters * folds,
                w_unique=w_unique,
                w_dests=w_dests,
                w_cycles=w_cycles,
                total_steps=k_iters * folds * pixel_steps,
            )

        candidates = [build_plan(fold_inner=False)]
        if folds > 1 and self.rn.has_accumulators:
            candidates.append(build_plan(fold_inner=True))
        return min(candidates, key=_Plan.estimated_cycles)

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------
    def _configure_fabric(self, tile: TileConfig) -> None:
        clusters = [tile.cluster_size] * tile.num_clusters
        self.mn.configure_clusters(clusters)
        self.rn.configure_clusters(clusters)

    def _needs_psum_roundtrip(self, folds: int, dataflow: Dataflow) -> bool:
        if folds <= 1:
            return False
        if dataflow is Dataflow.OUTPUT_STATIONARY:
            return not self.rn.has_accumulators
        # weight/input stationary sweep all pixels between folds, so psums
        # cannot stay in the output accumulators.
        return True

    def _weight_delivery(self, tile: TileConfig) -> tuple:
        """(unique values, destinations) of one phase's stationary load."""
        unique = tile.cluster_size * tile.t_k * tile.t_g
        replicas = tile.t_n * tile.t_x * tile.t_y
        destinations = unique * replicas
        if not self.dn.supports_multicast:
            unique = destinations
        return unique, destinations

    def _account_weight_loads(self, plan: _Plan) -> int:
        """Charge the plan's stationary deliveries; returns total cycles."""
        loads = plan.weight_loads
        if loads <= 0:
            return 0
        self.dn.enqueue(plan.w_unique, plan.w_dests, times=loads)
        self.dn.skip_cycles(plan.w_cycles * loads)
        self.gb.record_reads(plan.w_unique * loads)
        return plan.w_cycles * loads

    def _step_cost(
        self,
        layer: ConvLayerSpec,
        tile: TileConfig,
        steady: bool,
        fold_tail: bool,
        psum_roundtrip: bool,
        weight_unique: int = 0,
        allow_forwarding: bool = True,
    ) -> _StepCost:
        cs = tile.cluster_size
        nc = tile.num_clusters
        # Input uniqueness: the T_K filters of a cluster group share their
        # input window (multicast); distinct (g, n, x, y) clusters do not.
        input_clusters = tile.t_g * tile.t_n * tile.t_x * tile.t_y
        window = cs
        forwarded = 0
        if (steady and allow_forwarding and self.mn.forwarding
                and layer.r * layer.s > 1):
            # Sliding-window reuse: the window advances t_y * stride output
            # columns, so only the fresh receptive-field columns arrive
            # through the DN; the rest hop along the MN forwarding links.
            fresh_cols = min(tile.t_y * layer.stride, tile.t_s)
            fresh = tile.t_r * tile.t_c * fresh_cols
            fresh = min(fresh, window)
            forwarded = (window - fresh) * input_clusters
            window = fresh
        unique_inputs = window * input_clusters
        destinations = window * input_clusters * tile.t_k
        if not self.dn.supports_multicast:
            unique_inputs = destinations

        slots = unique_inputs + weight_unique
        psum_writebacks = 0
        if psum_roundtrip:
            if not fold_tail:
                psum_writebacks = nc
            # re-injection of the previous fold's psums through forwarders
            slots += nc

        outputs_completed = nc if fold_tail else 0
        return _StepCost(
            dn_slots=slots,
            unique_values=unique_inputs,
            destinations=destinations,
            forwarded=forwarded,
            psum_writebacks=psum_writebacks,
            outputs_completed=outputs_completed,
            weight_unique=weight_unique,
        )

    def _step_stages(
        self, cost: _StepCost, cluster_size: int
    ) -> Tuple[int, int, int]:
        """(delivery, reduction, output drain) cycles of one step; the
        step occupies the slowest of them, and never less than a cycle."""
        delivery = self.dn.delivery_cycles(
            max(cost.dn_slots, 1), max(cost.destinations, 1)
        )
        reduction = 1 if self.rn.pipelined else self.rn.reduction_latency(cluster_size)
        drain = self.rn.output_cycles(cost.outputs_completed + cost.psum_writebacks)
        return delivery, reduction, drain

    def _account_steps(
        self, cost: _StepCost, cs: int, nc: int, repeats: int, step_cycles: int
    ) -> None:
        """Record the activity of ``repeats`` identical steps."""
        self.dn.enqueue(
            max(cost.dn_slots, 1), max(cost.destinations, 1), times=repeats
        )
        self.dn.skip_cycles(step_cycles * repeats)
        self.gb.record_reads((cost.unique_values + cost.weight_unique) * repeats)
        # tier-boundary FIFO activity (GB->DN staging, RN->GB drain)
        self.counters.add("ctrl_fifo_pushes", cost.dn_slots * repeats)
        self.counters.add(
            "ctrl_fifo_pops",
            (cost.outputs_completed + cost.psum_writebacks) * repeats,
        )
        self.mn.record_multiplications(cs * nc * repeats)
        if cost.forwarded:
            self.mn.record_forwarding(cost.forwarded * repeats)
        self.rn.record_cluster_reductions(cs, repeats * nc)
        if cost.psum_writebacks:
            self.mn.record_psum_injections(nc * repeats)
            self.rn.record_outputs(cost.psum_writebacks * repeats)
            self.gb.record_writes(cost.psum_writebacks * repeats)
        elif self.rn.has_accumulators:
            self.rn.record_accumulations(nc * repeats)
        if cost.outputs_completed:
            self.rn.record_outputs(cost.outputs_completed * repeats)
            self.gb.record_writes(cost.outputs_completed * repeats)

    def _charge_stalls(
        self,
        ledger: StallLedger,
        cs: int,
        load_cycles: int,
        segments: List[Tuple[_StepCost, int, int]],
        drain: int,
        dram_stall: int,
    ) -> None:
        """Attribute the layer's cycles to stall buckets.

        Fed the plan's segment table and the phase totals :meth:`_run`
        accumulated. The controller row is exhaustive (its charges sum
        to the layer's cycles with zero idle); the dn/mn/rn rows charge
        each tier's busy share of every step and leave the rest as idle.
        """
        charge = ledger.charge
        charge("controller", "weight_fill", LAYER_SETUP_CYCLES + load_cycles)
        charge("dn", "weight_fill", load_cycles)
        for cost, repeats, step_cycles in segments:
            delivery, reduction, out_drain = self._step_stages(cost, cs)
            charge("controller", "compute_busy", repeats)
            stall = (step_cycles - 1) * repeats
            if stall > 0:
                # the slowest stage of max(delivery, reduction, drain)
                # owns the stall; ties resolve front-to-back
                if delivery == step_cycles:
                    bucket = "noc_distribution"
                elif reduction == step_cycles:
                    bucket = "noc_reduction"
                else:
                    bucket = "fifo_backpressure"
                charge("controller", bucket, stall)
            charge("dn", "noc_distribution", delivery * repeats)
            charge("mn", "compute_busy", repeats)
            charge("rn", "noc_reduction", max(reduction, out_drain) * repeats)
        # the final drain splits across the tiers it keeps in flight
        charge("controller", "pipeline_drain", drain)
        charge("dn", "pipeline_drain", self.dn.pipeline_latency)
        charge("mn", "pipeline_drain", 1)
        charge("rn", "pipeline_drain", self.rn.reduction_latency(cs))
        for component in ("controller", "dn", "mn", "rn"):
            charge(component, "dram_stall", dram_stall)

    def _charge_fifos(
        self, fabric: FabricLedger, segments: List[Tuple[_StepCost, int, int]]
    ) -> None:
        """Record tier-boundary FIFO occupancy from the segment table.

        Per segment the ``gb_dn`` staging FIFO sees the
        step's DN slots (anchored to ``ctrl_fifo_pushes``) and the
        ``rn_gb`` drain FIFO the completed psums/outputs (anchored to
        ``ctrl_fifo_pops``); the occupancy proxy is the per-step burst,
        capped at the configured capacity.
        """
        dn_capacity = self.config.dn_fifo_depth
        rn_capacity = self.config.rn_fifo_depth
        for cost, repeats, step_cycles in segments:
            window = step_cycles * repeats
            pushes = cost.dn_slots * repeats
            pops = (cost.outputs_completed + cost.psum_writebacks) * repeats
            fabric.record_fifo(
                "gb_dn", dn_capacity, pushes, pushes,
                min(cost.dn_slots, dn_capacity), window,
            )
            fabric.record_fifo(
                "rn_gb", rn_capacity, pops, pops,
                min(cost.outputs_completed + cost.psum_writebacks,
                    rn_capacity),
                window,
            )

    def _account_dram(self, layer: ConvLayerSpec, compute_cycles: int) -> int:
        """Move the layer footprint through DRAM; returns stall cycles."""
        bpe = self.config.dtype.bytes_per_element
        weight_elems = layer.num_filters * layer.filter_size
        input_elems = layer.n * layer.g * layer.c * layer.x * layer.y
        output_elems = layer.num_outputs
        working_set = weight_elems + input_elems + output_elems
        reload_factor = 1
        if not self.gb.fits(working_set):
            reload_factor = math.ceil(
                working_set / self.gb.half_capacity_elements
            )
        read_bytes = (weight_elems + input_elems) * bpe * reload_factor
        write_bytes = output_elems * bpe
        self.dram.record_read(read_bytes)
        self.dram.record_write(write_bytes)
        fill = weight_elems + input_elems
        self.gb.record_fill(fill)
        self.gb.mark_fill(fill)
        transfer = self.dram.transfer_cycles(read_bytes + write_bytes)
        return self.gb.dram_stall_cycles(transfer, compute_cycles)
