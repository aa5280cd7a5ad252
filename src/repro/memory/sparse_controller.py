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

Rounds as columns
-----------------

Everything a round's timing needs beyond ``n_cols`` depends on the
nonzero *pattern* alone, so :meth:`SparseController._plan_rounds` works
it out for all rounds of a GEMM at once, with array operations: one
gather of the scheduled CSR slices, one sort-and-deduplicate of
``round * K + column`` keys. The resulting :class:`_RoundPlan` holds, as
int64 columns with one entry per round, the cluster sizes, the mapped
nonzeros, the sorted union support and its size, and the counts of
continued / resumed (folded) rows, plus the largest cluster of the GEMM
for the final drain. Schedule validation reads the same table.

``time_spmm`` goes schedule -> time -> commit, a table at a time;
``run_spmm`` is the same call plus one :class:`SparseRoundStats` per
round, which the accelerator does not build.

*Schedule* (:meth:`SparseController._schedule`): compress the operand,
run the round builder, plan the rounds as above, and have the MN and RN
check every round's clusters in one call each (capacity, and the ART
non-blocking proof for all rounds at once). All of it
follows from where the stationary nonzeros are, ``groups``, the fabric
size and the builder — not from the values, ``n_cols`` or a bandwidth —
so it is done **once per (structure, groups, fabric, builder)**: the
result is kept in a bounded, process-wide, least-recently-used memo keyed
on :func:`repro.tensors.sparse.structure_digest` (a sha256 of the
operand's ``!= 0`` bits, read off the content on every call, so an array
edited in place is a different key) and those three. A miss runs the
pipeline unchanged and stores the result only if nothing raised; a hit
returns the same record; the rest of ``time_spmm`` cannot tell which
happened, and neither can a payload — :func:`schedule_memo_info` is the
only view of it. What is kept is the plan's per-round columns and the
operand facts ``time_spmm`` reads (``nnz``, shape, metadata bits):
O(rounds + chunks). The per-nonzero arrays (the plan's ``columns`` and
``support``, the CSR itself) are not kept — only dual-sided timing reads
them — so a call with ``streaming=`` neither reads nor writes the memo
and schedules afresh; there the streamed values decide anyway.

*Time*: :meth:`SparseController._time_rounds` turns the plan into a
second set of columns (load / step / stream / merge cycles, the start of
every round, the per-step activity), written into preallocated arrays:
its NumPy calls are a fixed number per GEMM, whatever the round count.
*Commit*:
:meth:`SparseController._commit_rounds` writes counters, stall-ledger
charges and fabric levels from sums over column slices. It is the only
place they are written, and it is one accounting, not two: every amount
is linear in the rounds it covers (the DN queue, which is not, is solved
across the slice by the DN itself), so ``(0, R)`` in one call and
``(i, i + 1)`` in ``R`` calls leave the same state. What picks the
slicing is whether anything can read the counter file mid-GEMM: a
metrics recorder samples it at every round boundary, so under one each
round is committed just before its sample; otherwise all rounds go at
once. Observers that keep one record per round — the tracer's
``round[i]`` span sets, the fabric lens's FIFO windows, ``run_spmm``'s
``round_stats`` — iterate the finished columns.
"""

from __future__ import annotations

import operator
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.config.hardware import HardwareConfig
from repro.errors import ConfigurationError, MappingError
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.noc.base import ClockedComponent, run_offsets, run_sums
from repro.noc.distribution import DeliverySchedule, DistributionNetwork
from repro.noc.multiplier import MultiplierNetwork
from repro.noc.reduction import ReductionNetwork
from repro.tensors.sparse import (
    BitmapMatrix,
    CsrMatrix,
    block_diagonal_csr,
    structure_digest,
)

#: fixed cycles for the Configuration Unit to program a GEMM's signals
GEMM_SETUP_CYCLES = 4
#: cycles to configure the Benes routing + FAN clusters for the first
#: round; subsequent reconfigurations overlap the previous round's
#: streaming (the Benes fabric is non-blocking, so SIGMA prepares the next
#: round's routes while the current one drains)
ROUND_RECONFIG_CYCLES = 1
#: bytes of round schedules one process keeps (see :class:`_Schedule`);
#: past it the least recently used go first
SCHEDULE_MEMO_BYTES = 16 * 2**20


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


#: a round-builder maps (row_nnz, fabric capacity) -> rounds of chunks.
#: It must be a pure function of those two arguments (NS, RDM with its
#: seed bound, and LFF all are): the controller runs it once per
#: (operand structure, fabric, builder) and reuses the schedule, keyed on
#: the builder object itself — so pass the same callable to be recognised;
#: a fresh lambda per call is correct but never reused.
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
    """One round of a :meth:`SparseController.run_spmm` summary.

    A record for callers that inspect rounds one at a time; nothing in
    the simulator reads it (the accelerator times layers with
    :meth:`SparseController.time_spmm`, which builds none)."""

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


class SparseTiming(NamedTuple):
    """One sparse GEMM as :meth:`SparseController.time_spmm` leaves it:
    :class:`SparseRunResult`'s fields, in its order, less ``round_stats``."""

    cycles: int
    effective_macs: int
    dense_macs: int
    outputs: int
    rounds: int
    mapping_utilization: float
    multiplier_utilization: float


class _RoundPlan(NamedTuple):
    """The schedule of one GEMM as a table: one int64 column entry per
    round (per chunk, for ``sizes``).

    Built once by :meth:`SparseController._plan_rounds` from the nonzero
    pattern alone; timing, the batched fabric check, the commit and
    schedule validation all read it. The entries stay NumPy integers:
    whatever leaves the controller (counters, results, spans) is
    converted where it leaves, a column or a sum at a time.
    """

    #: nonzeros per packed row chunk — the FAN/ART cluster sizes — round
    #: after round; round ``i`` owns
    #: ``sizes[chunk_offsets[i]:chunk_offsets[i + 1]]``
    sizes: np.ndarray
    chunk_offsets: np.ndarray
    #: packed chunks (one output per column step each)
    rows: np.ndarray
    #: mapped nonzeros (the sum of the cluster sizes)
    nnz: np.ndarray
    #: size of the union of the packed chunks' column supports
    unique: np.ndarray
    #: chunks whose row continues in a later round / resumes an earlier one
    continued: np.ndarray
    resumed: np.ndarray
    #: largest cluster of the whole GEMM (deepest in-flight reduction)
    max_cluster: int
    #: column of every mapped nonzero, round by round in chunk order;
    #: round ``i`` owns ``columns[column_offsets[i]:column_offsets[i + 1]]``
    columns: np.ndarray
    column_offsets: np.ndarray
    #: the sorted union supports, concatenated the same way
    support: np.ndarray
    support_offsets: np.ndarray

    def cluster_sizes(self, index: int) -> np.ndarray:
        return self.sizes[
            self.chunk_offsets[index] : self.chunk_offsets[index + 1]
        ]

    def round_columns(self, index: int) -> np.ndarray:
        return self.columns[
            self.column_offsets[index] : self.column_offsets[index + 1]
        ]

    def round_support(self, index: int) -> np.ndarray:
        return self.support[
            self.support_offsets[index] : self.support_offsets[index + 1]
        ]

    def per_round(self) -> "_RoundPlan":
        """This plan without its two per-nonzero arrays, which only
        dual-sided timing reads: O(rounds + chunks), frozen, owning its
        memory — the form the schedule memo keeps."""
        none = np.empty(0, dtype=np.int64)
        kept = self._replace(
            sizes=np.ascontiguousarray(self.sizes), columns=none, support=none
        )
        for column in kept:
            if isinstance(column, np.ndarray):
                column.setflags(write=False)
        return kept


class _Schedule(NamedTuple):
    """A stationary operand, scheduled: its round table, checked against
    the fabric, and the operand facts the rest of ``time_spmm`` reads.

    Everything here follows from (nonzero structure, groups, fabric
    size, round builder) and nothing else — not the values, not
    ``n_cols``, not the bandwidths — which is what lets one be reused.
    """

    plan: _RoundPlan
    nnz: int
    shape: Tuple[int, int]
    metadata: int

    def metadata_bits(self) -> int:
        return self.metadata

    @property
    def nbytes(self) -> int:
        """What holding this costs: the columns with their array headers
        (most of a small GEMM's entry) and the two records around them."""
        return sum(
            sys.getsizeof(part) for part in (self, self.plan, *self.plan)
            if not isinstance(part, int)
        )


class ScheduleMemoInfo(NamedTuple):
    """Host-side view of the schedule memo (never part of a payload)."""

    hits: int
    misses: int
    entries: int
    nbytes: int


#: (structure digest, groups, MSs, RN inputs, round builder)
_MemoKey = Tuple[bytes, int, int, int, RoundBuilder]

# The schedule memo: process-wide, least recently used last out. Nothing
# read from it can differ from what the same process would compute, so it
# is invisible in every payload.
_SCHEDULES: "OrderedDict[_MemoKey, _Schedule]" = OrderedDict()
_MEMO_COUNTS: Dict[str, int] = {"hits": 0, "misses": 0, "nbytes": 0}
_MEMO_LOCK = threading.Lock()


def _memoized_schedule(
    key: _MemoKey, build: Callable[[], _Schedule]
) -> _Schedule:
    """The schedule under ``key`` — built now if the memo does not hold
    it, and stored only once ``build`` has returned (one that raised was
    rejected, and is built and rejected again next time). The memo's
    only reader and writer: it then evicts down to
    :data:`SCHEDULE_MEMO_BYTES`, least recently used first."""
    with _MEMO_LOCK:
        schedule = _SCHEDULES.get(key)
        _MEMO_COUNTS["misses" if schedule is None else "hits"] += 1
        if schedule is not None:
            _SCHEDULES.move_to_end(key)
            return schedule
    schedule = build()
    with _MEMO_LOCK:
        if key not in _SCHEDULES:  # else another thread stored the same
            _SCHEDULES[key] = schedule
            _MEMO_COUNTS["nbytes"] += schedule.nbytes
        while _MEMO_COUNTS["nbytes"] > SCHEDULE_MEMO_BYTES:
            _, evicted = _SCHEDULES.popitem(last=False)
            _MEMO_COUNTS["nbytes"] -= evicted.nbytes
    return schedule


def schedule_memo_info() -> ScheduleMemoInfo:
    """Hits, misses, stored schedules and their bytes, this process."""
    with _MEMO_LOCK:
        return ScheduleMemoInfo(
            _MEMO_COUNTS["hits"], _MEMO_COUNTS["misses"], len(_SCHEDULES),
            _MEMO_COUNTS["nbytes"],
        )


def clear_schedule_memo() -> None:
    """Forget every stored schedule and zero the hit / miss counts."""
    with _MEMO_LOCK:
        _SCHEDULES.clear()
        _MEMO_COUNTS.update(hits=0, misses=0, nbytes=0)


class _RoundTimes(NamedTuple):
    """What every round of a plan costs for ``n_cols`` streamed columns:
    its cycles, and the per-step activity the commit multiplies out —
    int64 columns beside the plan's, from :meth:`SparseController._time_rounds`.
    """

    n_cols: int
    #: first cycle of the round, counted from the start of the GEMM
    start: np.ndarray
    #: fabric reconfiguration (first round only) + stationary load
    fill: np.ndarray
    load: np.ndarray
    #: cycles of the slowest column step, and of all ``n_cols`` of them
    step: np.ndarray
    stream: np.ndarray
    #: folded-row psum merge closing the round
    merge: np.ndarray
    total: np.ndarray
    #: DN slots per column step (at least one) and streamed inputs read
    #: per step (under dual-sided sparsity: the rounded per-column mean)
    slots: np.ndarray
    unique: np.ndarray
    multiplications: np.ndarray
    #: what a round adds to the counter file and the stall ledger, already
    #: multiplied out over its ``n_cols`` column steps: one row per round,
    #: the columns in the order :meth:`SparseController._commit_rounds`
    #: unpacks their sums
    charges: np.ndarray
    #: the rounds' DN deliveries, costed: round ``i`` owns entries ``2i``
    #: (stationary load) and ``2i + 1`` (its column steps)
    deliveries: DeliverySchedule


def _as_index(name: str, value: Any) -> int:
    """``value`` as a plain ``int`` (NumPy integers included), or a
    :class:`MappingError` naming the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise MappingError(
            f"{name} must be an integer, got {name}={value!r}"
        ) from None


def _numeric(name: str, value: Any) -> np.ndarray:
    """``np.asarray(value)`` when that is a bool, integer or float array;
    otherwise a :class:`ConfigurationError` naming the operand (strings,
    dicts and ragged lists would be timed as something they are not)."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"spmm operand {name} must be a numeric array: {error}"
        ) from None
    if array.dtype.kind not in "biuf":
        raise ConfigurationError(
            f"spmm operand {name} must be a numeric array, got dtype "
            f"{array.dtype}"
        )
    return array


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
        groups: int = 1,
    ) -> SparseRunResult:
        """:meth:`time_spmm`, summarised with one :class:`SparseRoundStats`
        per round."""
        timing, plan, times = self._time_spmm(
            stationary, n_cols, round_builder, streaming, groups
        )
        num_ms = self.mn.num_ms
        return SparseRunResult(
            *timing,
            round_stats=tuple(
                SparseRoundStats(rows, nnz, unique, total, nnz / num_ms)
                for rows, nnz, unique, total in zip(
                    plan.rows.tolist(), plan.nnz.tolist(),
                    times.unique.tolist(), times.total.tolist(),
                )
            ),
        )

    def time_spmm(
        self,
        stationary: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        n_cols: int,
        round_builder: Optional[RoundBuilder] = None,
        streaming: Optional[np.ndarray] = None,
        groups: int = 1,
    ) -> SparseTiming:
        """Simulate ``stationary (M x K, sparse) @ streaming (K x n_cols)``.

        ``round_builder`` selects the filter-scheduling policy; ``None``
        uses the natural-order (NS) packing.

        Passing the actual ``streaming`` operand enables SIGMA's
        dual-sided sparsity: per column, only the values whose row index
        lies in the round's support **and is nonzero** are delivered and
        multiplied (ReLU-sparse activations shrink both traffic and
        effective compute). With ``streaming=None`` the KN operand is
        assumed dense, the Table V validation configuration.

        ``groups > 1`` reads ``stationary`` as that many equal blocks
        stacked row-wise (a grouped convolution's ``(k * groups) x dot``
        filters) and runs them as one block-diagonal ``(k * groups) x
        (dot * groups)`` GEMM, so filters of every group share rounds.

        The counters, ledgers and clock advance exactly as under
        :meth:`run_spmm`, which only adds the per-round records.
        """
        return self._time_spmm(
            stationary, n_cols, round_builder, streaming, groups
        )[0]

    def _time_spmm(
        self,
        stationary: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        n_cols: int,
        round_builder: Optional[RoundBuilder],
        streaming: Optional[np.ndarray],
        groups: int,
    ) -> Tuple[SparseTiming, _RoundPlan, _RoundTimes]:
        """The one timing body: the summary, and the plan and round
        columns it was read off."""
        n_cols = _as_index("n_cols", n_cols)
        if n_cols < 1:
            raise MappingError("the streaming matrix needs at least one column")
        groups = _as_index("groups", groups)
        if groups < 1:
            raise MappingError(f"groups must be at least 1, got groups={groups}")
        if streaming is not None:
            streaming = _numeric("streaming", streaming)
            if streaming.ndim != 2 or streaming.shape[1] != n_cols:
                raise MappingError(
                    f"streaming operand shape {streaming.shape} disagrees "
                    f"with n_cols={n_cols}"
                )
        if not isinstance(stationary, (BitmapMatrix, CsrMatrix)):
            stationary = _numeric("stationary", stationary)
            if stationary.ndim != 2:
                raise MappingError(
                    "the stationary operand must be a 2-D matrix, got shape "
                    f"{stationary.shape}"
                )
        if 0 in stationary.shape:
            raise MappingError(
                "the stationary operand needs at least one row and one "
                f"column, got shape {tuple(stationary.shape)}"
            )
        obs = self.obs
        builder = round_builder or natural_order_rounds

        # schedule: once per (structure, groups, fabric, builder). With a
        # streaming operand the values decide and timing reads the plan's
        # per-nonzero arrays, which the memo does not keep: scheduled afresh
        if streaming is None:
            schedule = self._recall_schedule(stationary, groups, builder)
        else:
            schedule = self._schedule(stationary, groups, builder)
        plan = schedule.plan
        m_rows, k_dim = schedule.shape
        if streaming is not None and streaming.shape[0] != k_dim:
            raise MappingError(
                f"streaming operand has {streaming.shape[0]} rows but the "
                f"stationary K dimension is {k_dim}"
            )

        # time: nothing above or here has touched a counter yet
        num_rounds = len(plan.nnz)
        times = self._time_rounds(
            plan, n_cols, None if streaming is None else streaming != 0
        )

        tracer = obs.tracer
        base = obs.base
        ledger = obs.stalls
        self.counters.add("ctrl_gemms_run", 1)
        self.counters.add("ctrl_metadata_elements", schedule.nnz)
        if ledger is not None:
            ledger.charge("controller", "weight_fill", GEMM_SETUP_CYCLES)
        if tracer.enabled:
            tracer.span("CTRL:setup", self.name, base, base + GEMM_SETUP_CYCLES)

        # commit: all rounds at once, unless a metrics recorder samples the
        # counter file at every round boundary — then round by round, each
        # one written just before the sample that may read it
        ends = (times.start + times.total).tolist()
        batch = 1 if obs.metrics is not None else max(num_rounds, 1)
        for lo in range(0, num_rounds, batch):
            hi = lo + batch
            self._commit_rounds(plan, times, lo, hi)
            self._observe_rounds(plan, times, lo, hi)
            obs.sample(ends[hi - 1])
        cycles = ends[-1] if ends else GEMM_SETUP_CYCLES

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

        dram_stall = self._account_dram(schedule, n_cols, cycles)
        if tracer.enabled and dram_stall:
            tracer.span(
                "DRAM:stall", self.dram.name, base + cycles,
                base + cycles + dram_stall,
            )
        cycles += dram_stall
        if ledger is not None:
            ledger.charge("controller", "dram_stall", dram_stall)
        obs.sample(cycles)

        num_ms = self.mn.num_ms
        mapped_nnz = int(plan.nnz.sum())
        mapping_util = mapped_nnz / (num_ms * num_rounds) if num_rounds else 0.0
        ms_util = mapped_nnz * n_cols / (num_ms * cycles) if cycles else 0.0
        self._current_cycle += cycles
        self.counters.add("ctrl_cycles", cycles)
        timing = SparseTiming(
            cycles=cycles,
            # every mapped nonzero multiplies once per streamed column —
            # under dual-sided sparsity, once per column whose streamed
            # value is nonzero too
            effective_macs=int(times.multiplications.sum()),
            dense_macs=m_rows * k_dim * n_cols,
            outputs=m_rows * n_cols,
            rounds=num_rounds,
            mapping_utilization=mapping_util,
            multiplier_utilization=ms_util,
        )
        return timing, plan, times

    # ------------------------------------------------------------------
    def _time_rounds(
        self, plan: _RoundPlan, n_cols: int, b_mask: Optional[np.ndarray]
    ) -> _RoundTimes:
        """Cycles and per-step activity of every round, as array arithmetic.

        Per round: the stationary load of its nonzeros through the DN,
        ``n_cols`` column steps each bound by the slower of the delivery
        of the union support and the drain of one output per packed row,
        and — for rows resumed from an earlier round — the merge of their
        partial outputs (re-read from the GB, one add per column each).
        """
        bandwidth = self.dn.bandwidth
        num_rounds = len(plan.nnz)
        drain = self.rn.output_cycles(plan.rows)
        if b_mask is None:
            # union of the packed rows' column supports = unique streaming
            # elements needed per column step (multicast collapses sharing)
            unique = plan.unique
        else:
            # dual-sided sparsity: per column only the nonzero streamed
            # values inside the round's support are delivered, so every
            # column has its own step (rounds x n_cols). Counted a round
            # at a time: one round's gather stays in cache, the whole
            # table's is a (total support x n_cols) temporary, ten times
            # slower to reduce and the size of the GEMM itself
            bounds = plan.support_offsets.tolist()
            arriving = np.array(
                [
                    np.count_nonzero(b_mask[plan.support[lo:hi]], axis=0)
                    for lo, hi in zip(bounds, bounds[1:])
                ],
                dtype=np.int64,
            ).reshape(-1, n_cols)
            unique = np.rint(arriving.mean(axis=1)).astype(np.int64)
        slots = np.maximum(unique, 1)
        # per round two DN deliveries, costed together: the stationary
        # load (weights plus compressed metadata), then the column steps
        # as one delivery repeated n_cols times
        delivered = np.empty(2 * num_rounds, dtype=np.int64)
        delivered[0::2] = plan.nnz
        delivered[1::2] = slots
        repeats = np.empty_like(delivered)
        repeats[0::2] = 1
        repeats[1::2] = n_cols
        # each delivery's cycles, then (below) its drain window: the odd
        # entries become the rounds' stream cycles once read
        windows = self.dn.delivery_cycles_of(delivered, delivered)
        load = windows[0::2]
        if b_mask is None:
            delivery = windows[1::2]
            step = np.maximum(np.maximum(delivery, drain), 1)
            stream = step * n_cols
            multiplications = plan.nnz * n_cols
            dn_stall = np.where(delivery >= drain, stream - n_cols, 0)
        else:
            per_col = np.maximum(-(-arriving // bandwidth), 1)
            costs = np.maximum(per_col, drain[:, None])
            step = costs.max(axis=1)
            stream = costs.sum(axis=1)
            multiplications = run_sums(
                b_mask.sum(axis=1)[plan.columns], plan.column_offsets
            )
            # one useful cycle per column, the rest charged to whichever
            # side bound that column
            dn_stall = ((costs - 1) * (per_col >= drain[:, None])).sum(axis=1)
        windows[1::2] = stream
        # reconfiguration shows only before the first round: the later
        # ones overlap the previous round's streaming
        fill = load.copy()
        fill[:1] += ROUND_RECONFIG_CYCLES
        # what each round charges, one column per amount in the order
        # _commit_rounds unpacks them; columns 2-5 (merge reads, outputs,
        # FIFO pushes, spills) are written per column step, then
        # multiplied by n_cols in one go
        charges = np.empty((num_rounds, 10), dtype=np.int64)
        per_step = charges[:, 2:6]
        charges[:, 0] = plan.nnz
        per_step[:, 0] = plan.resumed
        per_step[:, 1] = plan.rows
        per_step[:, 2] = slots
        per_step[:, 3] = plan.continued
        per_step *= n_cols
        merge_reads = charges[:, 2]
        np.add(plan.nnz, merge_reads, out=charges[:, 1])
        charges[:, 1] += unique * n_cols
        merge = -(-merge_reads // bandwidth) + -(-merge_reads // self.rn.bandwidth)
        charges[:, 6] = fill
        charges[:, 7] = dn_stall
        np.subtract(stream, n_cols, out=charges[:, 8])
        charges[:, 8] -= dn_stall
        charges[:, 9] = merge
        total = fill + stream + merge
        return _RoundTimes(
            n_cols=n_cols,
            start=GEMM_SETUP_CYCLES + total.cumsum() - total,
            fill=fill, load=load, step=step, stream=stream, merge=merge,
            total=total, slots=slots, unique=unique,
            multiplications=multiplications,
            charges=charges,
            deliveries=self.dn.schedule_deliveries(
                delivered, delivered, repeats, windows
            ),
        )

    def _commit_rounds(
        self, plan: _RoundPlan, times: _RoundTimes, lo: int, hi: int
    ) -> None:
        """Charge rounds ``[lo, hi)``: counters, stall ledger, fabric levels.

        The only place a SpMM's rounds are written anywhere. Every amount
        is a sum over a slice of the tables (the DN queue, which does not
        add up, was solved across all rounds by the DN's schedule), so
        one call over all rounds and one call per round leave the same
        counter file, ledgers and DN queue; which of the two runs is
        decided by whether anything can read the counters in between
        (see :meth:`time_spmm`).
        """
        n_cols = times.n_cols
        (loads, reads, merged, outputs, pushes, spills,
         fill, dn_stall, fifo_stall, merge) = (
            times.charges[lo:hi].sum(axis=0).tolist()
        )
        configured = plan.cluster_sizes(hi - 1).tolist()
        self.mn.record_reconfigurations(hi - lo, configured)
        self.rn.record_reconfigurations(hi - lo, configured)
        self.dn.record_scheduled(times.deliveries, 2 * lo, 2 * hi)
        self.counters.add("ctrl_stationary_loads", loads)
        self.gb.record_reads(reads)
        self.rn.record_accumulations(merged)
        self.mn.record_round_multiplications(
            times.multiplications[lo:hi], plan.nnz[lo:hi]
        )
        self.rn.record_cluster_table(
            plan.sizes[plan.chunk_offsets[lo] : plan.chunk_offsets[hi]], n_cols
        )
        self.rn.record_outputs(outputs)
        self.gb.record_writes(outputs)
        self.counters.add("ctrl_fifo_pushes", pushes)
        self.counters.add("ctrl_fifo_pops", outputs)
        self.counters.add("ctrl_psum_spills", spills)
        ledger = self.obs.stalls
        if ledger is not None:
            charge = ledger.charge
            # reconfig + stationary fill open a round; each column step is
            # one useful cycle, the rest of it charged to the side that
            # bound it; the folded-row psum merge runs through the
            # reduction tier
            charge("controller", "weight_fill", fill)
            charge("controller", "compute_busy", (hi - lo) * n_cols)
            charge("controller", "noc_distribution", dn_stall)
            charge("controller", "fifo_backpressure", fifo_stall)
            charge("controller", "noc_reduction", merge)

    def _observe_rounds(
        self, plan: _RoundPlan, times: _RoundTimes, lo: int, hi: int
    ) -> None:
        """One record per round for the observers that keep one: the
        tracer's ``round[i]`` span sets and the fabric lens's tier-boundary
        FIFO windows, read off the finished columns."""
        obs = self.obs
        tracer, fabric = obs.tracer, obs.fabric
        if not tracer.enabled and fabric is None:
            return
        n_cols = times.n_cols
        rounds = slice(lo, hi)
        table = zip(
            plan.rows[rounds].tolist(), plan.nnz[rounds].tolist(),
            plan.resumed[rounds].tolist(), times.slots[rounds].tolist(),
            times.multiplications[rounds].tolist(), times.step[rounds].tolist(),
            (obs.base + times.start[rounds]).tolist(), times.fill[rounds].tolist(),
            times.load[rounds].tolist(), times.stream[rounds].tolist(),
            times.merge[rounds].tolist(),
        )
        dn_depth = self.config.dn_fifo_depth
        rn_depth = self.config.rn_fifo_depth
        for index, (rows, nnz, resumed, slots, multiplications, step, start,
                    fill, load, stream, merge) in enumerate(table, lo):
            if fabric is not None:
                # tier-boundary FIFO occupancy for the round's column stream
                fabric.record_fifo(
                    "gb_dn", dn_depth, slots * n_cols, slots * n_cols,
                    min(slots, dn_depth), stream,
                )
                fabric.record_fifo(
                    "rn_gb", rn_depth, rows * n_cols, rows * n_cols,
                    min(rows, rn_depth), stream,
                )
            if not tracer.enabled:
                continue
            tracer.begin(f"round[{index}]", self.name, start, rows=rows)
            streaming = start + fill
            tracer.span(
                "DN:stationary-load", self.dn.name, streaming - load, streaming,
                nonzeros=nnz,
            )
            merging = streaming + stream
            tracer.span(
                "DN:stream", self.dn.name, streaming, merging,
                columns=n_cols, slots_per_step=slots, step_cycles=step,
            )
            tracer.span(
                "MN:multiply", self.mn.name, streaming, merging,
                multiplications=multiplications,
            )
            tracer.span(
                "RN:reduce", self.rn.name, streaming, merging,
                outputs=rows * n_cols,
            )
            if merge:
                tracer.span(
                    "RN:merge", self.rn.name, merging, merging + merge,
                    resumed_rows=resumed,
                )
            tracer.end(
                merging + merge, nnz=nnz,
                utilization=round(nnz / self.mn.num_ms, 6),
            )

    # ------------------------------------------------------------------
    def _recall_schedule(
        self,
        stationary: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        groups: int,
        builder: RoundBuilder,
    ) -> _Schedule:
        """The operand's schedule on this fabric through the process-wide
        memo: :meth:`_schedule` runs the first time a (structure, groups,
        fabric, builder) is seen, and the same record (less the plan's
        per-nonzero arrays) comes back every time after."""

        def build() -> _Schedule:
            built = self._schedule(stationary, groups, builder)
            return built._replace(plan=built.plan.per_round())

        key = (
            structure_digest(stationary), groups, self.mn.num_ms,
            self.rn.num_inputs, builder,
        )
        return _memoized_schedule(key, build)

    def _schedule(
        self,
        stationary: Union[np.ndarray, BitmapMatrix, CsrMatrix],
        groups: int,
        builder: RoundBuilder,
    ) -> _Schedule:
        """Compress -> pack -> plan -> check: all of a GEMM that follows
        from where the stationary nonzeros are and how large the fabric is."""
        if isinstance(stationary, BitmapMatrix):
            stationary = stationary.to_dense()
        csr = block_diagonal_csr(stationary, groups)
        plan = self._plan_rounds(csr, builder(csr.row_nnz(), self.mn.num_ms))
        self.mn.verify_rounds(plan.sizes, plan.chunk_offsets)
        self.rn.verify_rounds(plan.sizes, plan.chunk_offsets)
        rows, cols = csr.shape
        return _Schedule(plan, csr.nnz, (rows, cols), csr.metadata_bits())

    def _plan_rounds(
        self, csr: CsrMatrix, rounds: Sequence[Sequence[RowChunk]]
    ) -> _RoundPlan:
        """Validate a schedule and tabulate what each round's timing reads."""
        k_dim = csr.shape[1]
        try:
            chunk_counts = np.fromiter(map(len, rounds), np.int64, len(rounds))
            chunks = np.array(
                [
                    (chunk.row, chunk.start, chunk.length, chunk.is_final)
                    for round_chunks in rounds for chunk in round_chunks
                ],
                dtype=np.int64,
            ).reshape(-1, 4)
        except (TypeError, AttributeError, ValueError) as error:
            raise MappingError(
                "a RoundBuilder must return a list of rounds, each a list of "
                f"RowChunk(row, start, length, is_final); got {rounds!r:.80}"
            ) from error
        rows, starts, lengths, final = chunks.T
        chunk_offsets = run_offsets(chunk_counts)
        nnz = run_sums(lengths, chunk_offsets)
        self._validate_rounds(
            chunk_counts, nnz, rows, starts, lengths, csr.row_nnz()
        )

        # gather every scheduled CSR slice in one indexing operation:
        # position i of the gather reads csr.indices[i + shift of its chunk]
        column_offsets = run_offsets(nnz)
        shift = csr.indptr[rows] + starts - run_offsets(lengths)[:-1]
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
        return _RoundPlan(
            sizes=lengths,
            chunk_offsets=chunk_offsets,
            rows=chunk_counts,
            nnz=nnz,
            unique=np.diff(support_offsets),
            continued=run_sums(1 - final, chunk_offsets),
            resumed=run_sums((starts > 0).astype(np.int64), chunk_offsets),
            max_cluster=int(lengths.max(initial=0)),
            columns=columns,
            column_offsets=column_offsets,
            support=support,
            support_offsets=support_offsets,
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

    def _account_dram(
        self, operand: _Schedule, n_cols: int, compute_cycles: int
    ) -> int:
        bpe = self.config.dtype.bytes_per_element
        metadata_bytes = operand.metadata_bits() // 8
        rows, k_dim = operand.shape
        read_bytes = operand.nnz * bpe + k_dim * n_cols * bpe + metadata_bytes
        write_bytes = rows * n_cols * bpe
        self.dram.record_read(read_bytes)
        self.dram.record_write(write_bytes)
        fill = operand.nnz + k_dim * n_cols
        self.gb.record_fill(fill)
        self.gb.mark_fill(fill)
        transfer = self.dram.transfer_cycles(read_bytes + write_bytes)
        return self.gb.dram_stall_cycles(transfer, compute_cycles)
