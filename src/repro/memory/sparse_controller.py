"""Sparse memory controller (paper Section IV-B, SIGMA-like execution).

The sparse controller runs GEMMs over compressed operands. Sparsity makes
the dot-product sizes *data-dependent*: each row of the stationary MK
matrix contributes only its nonzeros, so the controller packs whole rows
(filters) onto the multiplier fabric round by round, configures the
flexible reduction network with one variable-size cluster per packed row,
and streams the KN columns.

This dynamic packing is exactly what analytical models cannot capture
(Fig. 1c): the *distribution* of zeros determines how many rows fit per
round and how much of the fabric each round wastes. It is also the lever
of use case 3 — a scheduler that reorders rows (e.g. Largest Filter
First) packs rounds tighter and finishes in fewer of them.

Round timing
------------

For each round: a fabric reconfiguration cycle, the stationary load of the
round's nonzero weights through the DN, then one step per streamed column.
A column step delivers the **union** of the packed rows' column supports
(values shared by several rows multicast in one slot), multiplies, reduces
through the FAN/ART pipeline, and drains one output per packed row:

``step = max(1, ceil(|union support| / dn_bw), ceil(rows / rn_bw))``

Rows larger than the fabric fold across consecutive rounds; their partial
sums round-trip through the Global Buffer and are re-injected, adding one
DN slot and one write per continued row per column.

Round plan
----------

Everything a round's timing needs beyond ``n_cols`` depends on the
nonzero *pattern* alone, so :meth:`SparseController._plan_rounds` works
it out once per GEMM, for all rounds at once, with array operations: one
gather of the scheduled CSR slices, one sort-and-deduplicate of
``round * K + column`` keys. The resulting :class:`_RoundPlan` holds, per
round, the cluster sizes, the mapped nonzeros, the sorted union support
and its size, and the counts of continued / resumed (folded) rows, plus
the largest cluster of the GEMM for the final drain. Schedule validation
reads the same table.

The plan is *not* an aggregate: there is still exactly one round loop,
and every counter add, ledger charge, FIFO record, trace span and
metrics sample stays at its per-round site, because the metrics
recorder samples the live counters at every round boundary and the
tracer places one span set per round. The plan only moves how the inputs
to those calls are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config.hardware import HardwareConfig
from repro.errors import MappingError
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.noc.base import ClockedComponent
from repro.noc.distribution import DistributionNetwork
from repro.noc.multiplier import MultiplierNetwork
from repro.noc.reduction import ReductionNetwork
from repro.observability.telemetry.scopes import component_scope
from repro.tensors.sparse import BitmapMatrix, CsrMatrix, from_dense

#: fixed cycles for the Configuration Unit to program a GEMM's signals
GEMM_SETUP_CYCLES = 4
#: cycles to configure the Benes routing + FAN clusters for the first
#: round; subsequent reconfigurations overlap the previous round's
#: streaming (the Benes fabric is non-blocking, so SIGMA prepares the next
#: round's routes while the current one drains)
ROUND_RECONFIG_CYCLES = 1


@dataclass(frozen=True)
class RowChunk:
    """A contiguous slice of one stationary row's nonzeros.

    Unfolded rows are a single chunk (``is_final=True``); rows wider than
    the fabric split into several chunks whose psums accumulate across
    rounds.
    """

    row: int
    start: int
    length: int
    is_final: bool

    def __post_init__(self) -> None:
        if self.length < 1:
            raise MappingError("a row chunk needs at least one nonzero")


#: a round-builder maps (row_nnz, fabric capacity) -> rounds of chunks
RoundBuilder = Callable[[np.ndarray, int], List[List[RowChunk]]]


def pack_rows_in_order(
    row_nnz: np.ndarray, capacity: int, order: Optional[Sequence[int]] = None
) -> List[List[RowChunk]]:
    """Greedy sequential packing of whole rows in a given issue order.

    Rows that fit the fabric are atomic: when the next row does not fit in
    the remaining capacity, the round closes (the source of the
    fragmentation that scheduling policies attack). Rows *wider* than the
    whole fabric must fold regardless, so their chunks stream continuously
    — each chunk fills whatever capacity the current round still has —
    with partial sums accumulating across rounds.
    """
    rounds: List[List[RowChunk]] = []
    current: List[RowChunk] = []
    free = capacity
    if order is None:
        order = range(len(row_nnz))
    for row in (int(r) for r in order):
        nnz = int(row_nnz[row])
        if nnz == 0:
            continue
        if nnz <= capacity:
            if nnz > free:
                rounds.append(current)
                current, free = [], capacity
            current.append(RowChunk(row, 0, nnz, True))
            free -= nnz
            continue
        # oversized row: stream chunks through the remaining capacity
        offset = 0
        while offset < nnz:
            if free == 0:
                rounds.append(current)
                current, free = [], capacity
            chunk = min(free, nnz - offset)
            current.append(RowChunk(row, offset, chunk, offset + chunk >= nnz))
            free -= chunk
            offset += chunk
    if current:
        rounds.append(current)
    return rounds


def natural_order_rounds(row_nnz: np.ndarray, capacity: int) -> List[List[RowChunk]]:
    """The paper's *No Scheduling* (NS) packing: rows in natural order."""
    return pack_rows_in_order(row_nnz, capacity)


@dataclass(frozen=True)
class SparseRoundStats:
    """Per-round telemetry used by the scheduling study (Fig. 9)."""

    rows: int
    nnz: int
    unique_inputs: int
    cycles: int
    utilization: float


@dataclass(frozen=True)
class SparseRunResult:
    """Summary of one sparse GEMM execution."""

    cycles: int
    effective_macs: int
    dense_macs: int
    outputs: int
    rounds: int
    mapping_utilization: float
    multiplier_utilization: float
    round_stats: Tuple[SparseRoundStats, ...]

    @property
    def ops_saved_fraction(self) -> float:
        """Share of dense multiply work skipped thanks to sparsity."""
        if self.dense_macs == 0:
            return 0.0
        return 1.0 - self.effective_macs / self.dense_macs


class _RoundPlan(NamedTuple):
    """The schedule of one GEMM as a table, one entry per round.

    Built once by :meth:`SparseController._plan_rounds`; the round loop,
    the final drain and schedule validation all read it. Per-round
    entries are plain Python ints (they feed counters and payloads).
    """

    #: nonzeros per packed row chunk — the FAN/ART cluster sizes
    cluster_sizes: List[List[int]]
    #: mapped nonzeros (the sum of the cluster sizes)
    nnz: List[int]
    #: size of the union of the packed chunks' column supports
    unique: List[int]
    #: chunks whose row continues in a later round / resumes an earlier one
    continued: List[int]
    resumed: List[int]
    #: largest cluster of the whole GEMM (deepest in-flight reduction)
    max_cluster: int
    #: column of every mapped nonzero, round by round in chunk order;
    #: round ``i`` owns ``columns[column_offsets[i]:column_offsets[i + 1]]``
    columns: np.ndarray
    column_offsets: List[int]
    #: the sorted union supports, concatenated the same way
    support: np.ndarray
    support_offsets: List[int]

    def round_columns(self, index: int) -> np.ndarray:
        return self.columns[
            self.column_offsets[index] : self.column_offsets[index + 1]
        ]

    def round_support(self, index: int) -> np.ndarray:
        return self.support[
            self.support_offsets[index] : self.support_offsets[index + 1]
        ]


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Segment boundaries ``[0, c0, c0 + c1, ...]`` of consecutive runs."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of ``values`` (empty runs give 0)."""
    return np.diff(_offsets(values)[offsets])


class SparseController(ClockedComponent):
    """Bitmap/CSR GEMM orchestration with dynamic cluster packing."""

    def __init__(
        self,
        config: HardwareConfig,
        dn: DistributionNetwork,
        mn: MultiplierNetwork,
        rn: ReductionNetwork,
        gb: GlobalBuffer,
        dram: Dram,
        name: str = "sparse-controller",
    ) -> None:
        super().__init__(name)
        if not rn.variable_clusters:
            raise MappingError(
                "the sparse controller needs a variable-cluster RN (ART/FAN)"
            )
        self.config = config
        self.dn = dn
        self.mn = mn
        self.rn = rn
        self.gb = gb
        self.dram = dram

    # ------------------------------------------------------------------
    def run_spmm(
        self,
        stationary: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        n_cols: int,
        round_builder: Optional[RoundBuilder] = None,
        streaming: Optional[np.ndarray] = None,
    ) -> SparseRunResult:
        """Simulate ``stationary (M x K, sparse) @ streaming (K x n_cols)``.

        ``round_builder`` selects the filter-scheduling policy; ``None``
        uses the natural-order (NS) packing.

        Passing the actual ``streaming`` operand enables SIGMA's
        dual-sided sparsity: per column, only the values whose row index
        lies in the round's support **and is nonzero** are delivered and
        multiplied (ReLU-sparse activations shrink both traffic and
        effective compute). With ``streaming=None`` the KN operand is
        assumed dense, the Table V validation configuration.
        """
        if n_cols < 1:
            raise MappingError("the streaming matrix needs at least one column")
        if streaming is not None:
            streaming = np.asarray(streaming)
            if streaming.ndim != 2 or streaming.shape[1] != n_cols:
                raise MappingError(
                    f"streaming operand shape {streaming.shape} disagrees "
                    f"with n_cols={n_cols}"
                )
        obs = self.obs
        csr = self._as_csr(stationary)
        if streaming is not None and streaming.shape[0] != csr.shape[1]:
            raise MappingError(
                f"streaming operand has {streaming.shape[0]} rows but the "
                f"stationary K dimension is {csr.shape[1]}"
            )
        row_nnz = csr.row_nnz()
        builder = round_builder or natural_order_rounds
        plan = self._plan_rounds(csr, builder(row_nnz, self.mn.num_ms))
        num_rounds = len(plan.nnz)

        m_rows, k_dim = csr.shape
        dense_macs = m_rows * k_dim * n_cols
        total_nnz = int(row_nnz.sum())
        outputs = m_rows * n_cols

        b_mask = None
        if streaming is not None:
            b_mask = streaming != 0
            # dual-sided sparsity: a multiply happens only where both the
            # stationary weight and the streamed value are nonzero
            a_mask = csr.to_dense() != 0
            effective_macs = int((a_mask.astype(np.int64) @
                                  b_mask.astype(np.int64)).sum())
        else:
            effective_macs = total_nnz * n_cols

        tracer = obs.tracer
        base = obs.base
        ledger = obs.stalls
        self.counters.add("ctrl_gemms_run", 1)
        self.counters.add("ctrl_metadata_elements", csr.nnz)
        cycles = GEMM_SETUP_CYCLES
        if ledger is not None:
            ledger.charge("controller", "weight_fill", GEMM_SETUP_CYCLES)
        if tracer.enabled:
            tracer.span("CTRL:setup", self.name, base, base + cycles)
        round_stats: List[SparseRoundStats] = []
        busy_ms_cycles = 0
        mapped_nnz_total = 0

        for index in range(num_rounds):
            if tracer.enabled:
                tracer.begin(
                    f"round[{index}]", self.name, base + cycles,
                    rows=len(plan.cluster_sizes[index]),
                )
            stats = self._run_round(
                plan, index, n_cols, b_mask=b_mask, start=cycles,
            )
            round_stats.append(stats)
            cycles += stats.cycles
            if tracer.enabled:
                tracer.end(
                    base + cycles,
                    nnz=stats.nnz,
                    utilization=round(stats.utilization, 6),
                )
            busy_ms_cycles += stats.nnz * n_cols
            mapped_nnz_total += stats.nnz
            obs.sample(cycles)

        # final pipeline drain of the deepest in-flight reduction
        if num_rounds:
            drain = (self.dn.pipeline_latency + 1
                     + self.rn.reduction_latency(plan.max_cluster))
            if tracer.enabled:
                tracer.span(
                    "CTRL:pipeline-drain", self.name, base + cycles,
                    base + cycles + drain,
                )
            cycles += drain
            if ledger is not None:
                ledger.charge("controller", "pipeline_drain", drain)

        dram_stall = self._account_dram(csr, n_cols, cycles)
        if tracer.enabled and dram_stall:
            tracer.span(
                "DRAM:stall", self.dram.name, base + cycles,
                base + cycles + dram_stall,
            )
        cycles += dram_stall
        if ledger is not None:
            ledger.charge("controller", "dram_stall", dram_stall)
        obs.sample(cycles)

        mapping_util = (
            mapped_nnz_total / (self.mn.num_ms * num_rounds) if num_rounds else 0.0
        )
        ms_util = busy_ms_cycles / (self.mn.num_ms * cycles) if cycles else 0.0
        self._current_cycle += cycles
        self.counters.add("ctrl_cycles", cycles)
        return SparseRunResult(
            cycles=cycles,
            effective_macs=effective_macs,
            dense_macs=dense_macs,
            outputs=outputs,
            rounds=num_rounds,
            mapping_utilization=mapping_util,
            multiplier_utilization=ms_util,
            round_stats=tuple(round_stats),
        )

    # ------------------------------------------------------------------
    def _run_round(
        self, plan: _RoundPlan, index: int, n_cols: int, b_mask=None,
        start: int = 0,
    ) -> SparseRoundStats:
        obs = self.obs
        tracer = obs.tracer
        first = index == 0
        clock = obs.base + start + (ROUND_RECONFIG_CYCLES if first else 0)
        cluster_sizes = plan.cluster_sizes[index]
        rows = len(cluster_sizes)
        nnz = plan.nnz[index]
        self.mn.configure_clusters(cluster_sizes)
        self.rn.configure_clusters(cluster_sizes)

        # union of the packed rows' column supports = unique streaming
        # elements needed per column step (multicast collapses sharing)
        unique = plan.unique[index]
        continued = plan.continued[index]
        resumed = plan.resumed[index]

        # stationary load of the round's weights (plus compressed metadata)
        with component_scope("noc.distribution"):
            load_cycles = self.dn.record_delivery(nnz, nnz)
            self.gb.record_reads(nnz)
            self.counters.add("ctrl_stationary_loads", nnz)
        if tracer.enabled and load_cycles:
            tracer.span(
                "DN:stationary-load", self.dn.name, clock, clock + load_cycles,
                nonzeros=nnz,
            )
        clock += load_cycles

        # column streaming
        with component_scope("engine"):
            drain = self.rn.output_cycles(rows)
            dual_sided = b_mask is not None and unique > 0
            if dual_sided:
                # dual-sided sparsity: per column only the nonzero streamed
                # values inside the round's support are delivered
                unique_per_col = b_mask[plan.round_support(index), :].sum(axis=0)
                per_col = np.maximum(
                    np.ceil(unique_per_col / self.dn.bandwidth).astype(np.int64), 1
                )
                stream_cycles = int(np.maximum(per_col, drain).sum())
                step_cycles = max(1, int(per_col.max(initial=1)), drain)
                unique = int(round(float(unique_per_col.mean()))) if n_cols else 0
                slots = max(unique, 1)
            else:
                slots = unique
                delivery = self.dn.delivery_cycles(max(slots, 1), max(slots, 1))
                step_cycles = max(1, delivery, drain)
                stream_cycles = step_cycles * n_cols

            # folded rows: the previous chunk's partial outputs are re-read
            # from the GB and merged into this chunk's outputs at the round
            # boundary (one add per column per resumed row)
            merge_cycles = 0
            if resumed:
                merge_reads = resumed * n_cols
                merge_cycles = math.ceil(merge_reads / self.dn.bandwidth) + math.ceil(
                    merge_reads / self.rn.bandwidth
                )
                self.gb.record_reads(merge_reads)
                self.rn.record_accumulations(merge_reads)

            # batched activity for all column steps of the round
            self.dn.enqueue(max(slots, 1), max(slots, 1), times=n_cols)
            self.dn.skip_cycles(stream_cycles)
            self.gb.record_reads(unique * n_cols)
            if b_mask is not None:
                round_mults = int(b_mask[plan.round_columns(index), :].sum())
            else:
                round_mults = nnz * n_cols
            self.mn.record_multiplications(round_mults)
        with component_scope("noc.reduction"):
            for size in cluster_sizes:
                self.rn.record_cluster_reductions(int(size), n_cols)
            self.rn.record_outputs(rows * n_cols)
            self.gb.record_writes(rows * n_cols)
        self.counters.add("ctrl_fifo_pushes", max(slots, 1) * n_cols)
        self.counters.add("ctrl_fifo_pops", rows * n_cols)
        fabric = obs.fabric
        if fabric is not None:
            # tier-boundary FIFO occupancy for the round's column stream
            fabric.record_fifo(
                "gb_dn", self.config.dn_fifo_depth,
                max(slots, 1) * n_cols, max(slots, 1) * n_cols,
                min(max(slots, 1), self.config.dn_fifo_depth) if n_cols else 0,
                stream_cycles,
            )
            fabric.record_fifo(
                "rn_gb", self.config.rn_fifo_depth,
                rows * n_cols, rows * n_cols,
                min(rows, self.config.rn_fifo_depth) if n_cols else 0,
                stream_cycles,
            )
        if continued:
            self.counters.add("ctrl_psum_spills", continued * n_cols)

        if tracer.enabled and stream_cycles:
            stream_end = clock + stream_cycles
            tracer.span(
                "DN:stream", self.dn.name, clock, stream_end,
                columns=n_cols, slots_per_step=slots, step_cycles=step_cycles,
            )
            tracer.span(
                "MN:multiply", self.mn.name, clock, stream_end,
                multiplications=round_mults,
            )
            tracer.span(
                "RN:reduce", self.rn.name, clock, stream_end,
                outputs=rows * n_cols,
            )
        clock += stream_cycles
        if tracer.enabled and merge_cycles:
            tracer.span(
                "RN:merge", self.rn.name, clock, clock + merge_cycles,
                resumed_rows=resumed,
            )

        ledger = obs.stalls
        if ledger is not None:
            charge = ledger.charge
            # reconfig + stationary fill open the round
            charge(
                "controller", "weight_fill",
                (ROUND_RECONFIG_CYCLES if first else 0) + load_cycles,
            )
            if dual_sided:
                # dual-sided streaming: per column the step is
                # max(per_col delivery, output drain) — one useful cycle,
                # the rest charged to whichever side bound the column
                costs = np.maximum(per_col, drain)
                dn_bound = per_col >= drain
                charge("controller", "compute_busy", int(per_col.size))
                charge(
                    "controller", "noc_distribution",
                    int((costs[dn_bound] - 1).sum()),
                )
                charge(
                    "controller", "fifo_backpressure",
                    int((costs[~dn_bound] - 1).sum()),
                )
            else:
                charge("controller", "compute_busy", n_cols)
                stall = (step_cycles - 1) * n_cols
                if stall > 0:
                    bucket = (
                        "noc_distribution" if delivery >= drain
                        else "fifo_backpressure"
                    )
                    charge("controller", bucket, stall)
            # folded-row psum merge runs through the reduction tier
            charge("controller", "noc_reduction", merge_cycles)

        total = (
            (ROUND_RECONFIG_CYCLES if first else 0)
            + load_cycles
            + stream_cycles
            + merge_cycles
        )
        return SparseRoundStats(
            rows=rows,
            nnz=nnz,
            unique_inputs=unique,
            cycles=total,
            utilization=nnz / self.mn.num_ms,
        )

    # ------------------------------------------------------------------
    def _as_csr(self, matrix) -> CsrMatrix:
        if isinstance(matrix, CsrMatrix):
            return matrix
        if isinstance(matrix, BitmapMatrix):
            return from_dense(matrix.to_dense(), "csr")
        array = np.asarray(matrix)
        if array.ndim != 2:
            raise MappingError(
                f"the stationary operand must be a 2-D matrix, got shape {array.shape}"
            )
        return from_dense(array, "csr")

    def _plan_rounds(
        self, csr: CsrMatrix, rounds: Sequence[Sequence[RowChunk]]
    ) -> _RoundPlan:
        """Validate a schedule and tabulate what each round's timing reads."""
        k_dim = csr.shape[1]
        chunk_counts = np.fromiter(map(len, rounds), np.int64, len(rounds))
        chunks = np.array(
            [
                (chunk.row, chunk.start, chunk.length, chunk.is_final)
                for round_chunks in rounds for chunk in round_chunks
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        rows, starts, lengths, final = chunks.T
        chunk_offsets = _offsets(chunk_counts)
        nnz = _segment_sums(lengths, chunk_offsets)
        self._validate_rounds(
            chunk_counts, nnz, rows, starts, lengths, csr.row_nnz()
        )

        # gather every scheduled CSR slice in one indexing operation:
        # position i of the gather reads csr.indices[i + shift of its chunk]
        column_offsets = _offsets(nnz)
        shift = csr.indptr[rows] + starts - _offsets(lengths)[:-1]
        columns = csr.indices[
            np.arange(column_offsets[-1]) + np.repeat(shift, lengths)
        ]
        # union support of every round at once: sorted unique
        # (round, column) keys split back at the round boundaries
        # (sort + neighbour compare: np.unique's hash path in NumPy >= 2.3
        # measured 20x slower on these sizes)
        round_base = np.arange(len(rounds) + 1) * k_dim
        keys = np.sort(np.repeat(round_base[:-1], nnz) + columns)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        support_offsets = np.searchsorted(keys, round_base)
        support = keys - np.repeat(round_base[:-1], np.diff(support_offsets))
        sizes = lengths.tolist()
        bounds = chunk_offsets.tolist()
        return _RoundPlan(
            cluster_sizes=[
                sizes[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            ],
            nnz=nnz.tolist(),
            unique=np.diff(support_offsets).tolist(),
            continued=_segment_sums(1 - final, chunk_offsets).tolist(),
            resumed=_segment_sums(
                (starts > 0).astype(np.int64), chunk_offsets
            ).tolist(),
            max_cluster=int(lengths.max(initial=0)),
            columns=columns,
            column_offsets=column_offsets.tolist(),
            support=support,
            support_offsets=support_offsets.tolist(),
        )

    def _validate_rounds(
        self,
        chunk_counts: np.ndarray,
        nnz: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        row_nnz: np.ndarray,
    ) -> None:
        """Reject schedules the fabric cannot run, from the chunk table.

        Rounds are checked in order (the first empty or over-capacity
        round is the one reported), then row coverage, then that every
        chunk lies inside its row — which is what makes the plan's
        gather safe.
        """
        bad = np.flatnonzero((chunk_counts == 0) | (nnz > self.mn.num_ms))
        if bad.size:
            if chunk_counts[bad[0]] == 0:
                raise MappingError("a scheduling round cannot be empty")
            raise MappingError(
                f"round maps {int(nnz[bad[0]])} nonzeros onto "
                f"{self.mn.num_ms} MSs"
            )
        outside = np.flatnonzero((rows < 0) | (rows >= len(row_nnz)))
        if outside.size:
            raise MappingError(
                f"schedule names row {int(rows[outside[0]])} but the "
                f"stationary operand has {len(row_nnz)} rows"
            )
        covered = np.zeros(len(row_nnz), dtype=np.int64)
        np.add.at(covered, rows, lengths)
        wrong = np.flatnonzero(covered != row_nnz)
        if wrong.size:
            row = int(wrong[0])
            raise MappingError(
                f"schedule covers {int(covered[row])} of row {row}'s "
                f"{int(row_nnz[row])} nonzeros"
            )
        stray = np.flatnonzero((starts < 0) | (starts + lengths > row_nnz[rows]))
        if stray.size:
            at = stray[0]
            raise MappingError(
                f"chunk [{int(starts[at])}, {int(starts[at] + lengths[at])}) "
                f"lies outside row {int(rows[at])}'s "
                f"{int(row_nnz[rows[at]])} nonzeros"
            )

    def _account_dram(self, csr: CsrMatrix, n_cols: int, compute_cycles: int) -> int:
        bpe = self.config.dtype.bytes_per_element
        metadata_bytes = csr.metadata_bits() // 8
        read_bytes = csr.nnz * bpe + csr.shape[1] * n_cols * bpe + metadata_bytes
        write_bytes = csr.shape[0] * n_cols * bpe
        self.dram.record_read(read_bytes)
        self.dram.record_write(write_bytes)
        self.gb.record_fill(csr.nnz + csr.shape[1] * n_cols)
        transfer = self.dram.transfer_cycles(read_bytes + write_bytes)
        return self.gb.dram_stall_cycles(transfer, compute_cycles)

    def cycle(self) -> None:
        self._current_cycle += 1
