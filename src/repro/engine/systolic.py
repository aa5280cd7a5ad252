"""Cycle-level output-stationary systolic array (TPU-like).

The engine models the classic OS dataflow the paper validates against
SCALE-Sim's TPU RTL: operands enter skewed at the west (A, the stationary
matrix rows) and north (B, the streaming columns) edges, hop one PE per
cycle over the point-to-point links, and every PE accumulates its output
in place; results drain through the column buses when the wavefront
passes.

For an ``A x A`` array multiplying an ``m x k`` by ``k x n`` tile, the
compute wavefront spans ``k + m + n - 2`` cycles and the fill/drain
pipeline adds a constant :data:`PIPE_OVERHEAD`; larger GEMMs run as a
sequence of such tiles (the RTL of Table V executes tiles back-to-back,
which the engine mirrors). :meth:`SystolicEngine.time_gemm` fast-forwards
through this deterministic schedule — producing exactly the cycle count
the explicit per-cycle loop yields, as the test suite checks against the
register-level OS and WS loops of ``tests/oracles/clock.py``.

One schedule, one accounting
----------------------------

:meth:`SystolicEngine.time_gemm` never visits the tile grid. Along each
axis a tile is either *full* (``dim`` wide) or the single *remainder*
tile, so the grid partitions into at most four ``(shape, count)``
classes (:func:`tile_classes`) and every per-tile quantity — a function
of the tile shape alone — is a count-weighted sum over them (SCALE-Sim's
observation that systolic timing follows from the layer dimensions).
The counters are written class by class, ``count`` times one tile's
increments (``_tile_counts``): all ``repeats`` groups of a grouped
convolution at once, with one ``times=repeats`` DRAM record each way.

A tracer or a metrics recorder reads *when* each tile ran: the tiles of
a tile row that share a shape run back to back, so each group is a
sequence of (tile row x n-axis class) runs, which :meth:`~repro.
observability.context.Observability.sample_runs` turns into span runs
and closed-form metrics samples. A tracer alone reads no counter, so the
counters are still written once for all groups; the group loop only
places each group's span runs, ``GB:fill`` instant and ``DRAM:stall``
span (``tests/differential/test_traced_group_accounting.py`` keeps the
per-group accounting as its oracle). Only a metrics recorder samples the
counter file mid-GEMM, so under one each group's counters, DRAM record,
closing sample and ``ctrl_cycles`` are written where the group ended.
Within a group nothing else writes the counter file, so its value at any
tile boundary is its value before the group plus the deltas of the tiles
so far, in exact integer arithmetic: the spans and samples are byte for
byte those of one span, one counter write and one sample per tile — the
per-tile walk that ``tests/differential/test_tile_tally_equivalence.py``
keeps as its oracle. See ``docs/VECTOR_ENGINE.md``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

from repro.config.hardware import Dataflow, HardwareConfig
from repro.errors import ConfigurationError, MappingError
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.noc.base import ClockedComponent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.observability.context import TileRun
    from repro.observability.fabric import FabricLedger
    from repro.observability.stalls import StallLedger

#: fixed pipeline fill/drain cycles per tile (weight-feed setup, edge
#: buffers, and the output drain handshake), calibrated against the
#: SCALE-Sim TPU RTL counts of Table V
PIPE_OVERHEAD = 4

#: per-layer configuration cost: zero — the SCALE-Sim TPU RTL of Table V
#: streams tiles back-to-back with no inter-layer gap, and the per-tile
#: PIPE_OVERHEAD already covers the initial fill
LAYER_SETUP_CYCLES = 0

#: ``(tm, tk, tn, count)`` rows: a tile shape and how many tiles have it
_TileClasses = List[Tuple[int, int, int, int]]


def _axis_classes(extent: int, dim: int) -> List[Tuple[int, int]]:
    """``(tile_extent, tile_count)`` classes of one tiled axis."""
    full, rem = divmod(extent, dim)
    classes = []
    if full:
        classes.append((dim, full))
    if rem:
        classes.append((rem, 1))
    return classes


def tile_classes(
    engine: "SystolicEngine", m: int, k: int, n: int
) -> _TileClasses:
    """The ``(tm, k, tn, count)`` classes of the engine's tile grid.

    The triple matches the ``_account_tile(tm, k, tn)`` argument order:
    output-stationary tiles partition ``(m, n)`` with the full reduction
    ``k`` streaming; weight-stationary tiles partition ``(k, n)`` with
    the full ``m`` activation rows streaming.
    """
    dim = engine.dim
    if engine.weight_stationary:
        return [
            (m, tk, tn, ck * cn)
            for tk, ck in _axis_classes(k, dim)
            for tn, cn in _axis_classes(n, dim)
        ]
    return [
        (tm, k, tn, cm * cn)
        for tm, cm in _axis_classes(m, dim)
        for tn, cn in _axis_classes(n, dim)
    ]


@dataclass(frozen=True)
class SystolicRunResult:
    """Summary of one GEMM executed on the systolic array."""

    cycles: int
    macs: int
    outputs: int
    tiles: int
    multiplier_utilization: float
    dram_stall_cycles: int

    @property
    def macs_per_cycle(self) -> float:
        return self.macs / self.cycles if self.cycles else 0.0


class SystolicEngine(ClockedComponent):
    """Output-stationary ``A x A`` PE grid with PoPN edge feeding."""

    def __init__(
        self,
        config: HardwareConfig,
        gb: GlobalBuffer,
        dram: Dram,
        name: str = "systolic",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.dim = config.systolic_dim
        self.gb = gb
        self.dram = dram
        #: output-stationary (the paper's validated configuration) or
        #: weight-stationary (the TPUv1-style alternative)
        self.weight_stationary = (
            config.dataflow is Dataflow.WEIGHT_STATIONARY
        )

    # ------------------------------------------------------------------
    def tile_cycles(self, m: int, k: int, n: int) -> int:
        """Deterministic cycle count of one ``m x k x n`` tile.

        Output-stationary: operands stream skewed, the wavefront spans
        ``k + m + n - 2``. Weight-stationary (``k x n`` weights pinned,
        ``m`` activation rows streaming, psums flowing south): ``k``
        preload cycles plus the ``m + k + n - 2`` stream/drain span.
        """
        if self.weight_stationary:
            if not (1 <= k <= self.dim and 1 <= n <= self.dim):
                raise MappingError(
                    f"WS tile {k}x{n} exceeds the {self.dim}x{self.dim} array"
                )
            if m < 1:
                raise MappingError("tile stream dimension must be >= 1")
            return k + (m + k + n - 2) + PIPE_OVERHEAD
        if not (1 <= m <= self.dim and 1 <= n <= self.dim):
            raise MappingError(
                f"tile {m}x{n} exceeds the {self.dim}x{self.dim} array"
            )
        if k < 1:
            raise MappingError("tile reduction dimension must be >= 1")
        return k + m + n - 2 + PIPE_OVERHEAD

    def run_gemm(
        self, a: np.ndarray, b: np.ndarray, start: int = 0
    ) -> Tuple[np.ndarray, SystolicRunResult]:
        """``a @ b`` and :meth:`time_gemm` of its shapes; (result, summary)."""
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ConfigurationError(
                f"incompatible GEMM operands {a.shape} @ {b.shape}"
            )
        return a @ b, self.time_gemm(a.shape[0], a.shape[1], b.shape[1], start)

    def time_gemm(
        self, m: int, k: int, n: int, start: int = 0, repeats: int = 1
    ) -> SystolicRunResult:
        """Time ``repeats`` back-to-back ``m x k x n`` GEMMs from shapes alone.

        ``start`` is the layer-relative cycle the first GEMM begins at;
        it only positions trace spans and metrics samples. ``repeats``
        is the group count of a grouped convolution, whose groups are
        identical GEMMs: the counters, ledgers and clock advance by all
        of them while the returned summary describes one. Without a
        metrics recorder they are accounted in one pass, class by class,
        and their DRAM traffic is one ``times=repeats`` record each way;
        a tracer then gets each group's events in turn. Under a recorder
        they are accounted group by group, each in tile runs, so every
        sample of a group sees the groups before it.

        Every dimension must be an integer (NumPy integers included) —
        anything else raises :class:`ConfigurationError` before a counter
        is touched.
        """
        dims = {"m": m, "k": k, "n": n, "start": start, "repeats": repeats}
        for name, value in dims.items():
            try:
                dims[name] = operator.index(value)
            except TypeError:
                raise ConfigurationError(
                    f"time_gemm: {name} must be an integer, "
                    f"got {name}={value!r}"
                ) from None
        m, k, n, start, repeats = dims.values()
        if min(m, k, n, repeats) < 1:
            raise ConfigurationError(
                f"time_gemm: m, k, n and repeats must be >= 1, got m={m!r}, "
                f"k={k!r}, n={n!r}, repeats={repeats!r}"
            )
        obs = self.obs
        classes = tile_classes(self, m, k, n)
        cycles = LAYER_SETUP_CYCLES
        tiles = 0
        macs = 0
        for tm, tk, tn, count in classes:
            cycles += self.tile_cycles(tm, tk, tn) * count
            tiles += count
            macs += tm * tk * tn * count

        recorder = obs.metrics is not None
        if not recorder:
            # nothing reads the counter file mid-GEMM: account every
            # group at once, one DRAM record each way
            self._account_tile_classes(classes, repeats)
            dram_stall = self._record_dram(m, k, n, cycles, repeats)
            self.counters.add("ctrl_cycles", (cycles + dram_stall) * repeats)
        if recorder or obs.tracer.enabled:
            # place each group's tile runs, GB:fill instant and DRAM:stall
            # span; a recorder also samples the counter file where the
            # group ended, so its counters are written group by group
            runs = list(self._tile_runs(m, k, n))
            for _ in range(repeats):
                obs.sample_runs(start + LAYER_SETUP_CYCLES, runs)
                if recorder:
                    self._account_tile_classes(classes)
                    dram_stall = self._account_dram(m, k, n, cycles)
                else:
                    self.gb.mark_fill(m * k + k * n)
                end = start + cycles
                if dram_stall:
                    obs.tracer.span(
                        "DRAM:stall", self.dram.name, obs.base + end,
                        obs.base + end + dram_stall,
                    )
                if recorder:
                    obs.sample(end + dram_stall)
                    self.counters.add("ctrl_cycles", cycles + dram_stall)
                start = end + dram_stall
        cycles += dram_stall
        if repeats > 1:
            classes = [
                (tm, tk, tn, count * repeats) for tm, tk, tn, count in classes
            ]
        ledger = obs.stalls
        if ledger is not None:
            self._charge_stalls(ledger, classes, dram_stall * repeats)
        fabric = obs.fabric
        if fabric is not None:
            self._charge_fabric(fabric, classes)
        self._current_cycle += cycles * repeats
        utilization = macs / (self.config.num_ms * cycles) if cycles else 0.0
        return SystolicRunResult(
            cycles=cycles,
            macs=macs,
            outputs=m * n,
            tiles=tiles,
            multiplier_utilization=utilization,
            dram_stall_cycles=dram_stall,
        )

    # ------------------------------------------------------------------
    def _tile_counts(self, tm: int, k: int, tn: int) -> Dict[str, int]:
        """One ``tm x k x tn`` tile's nonzero counter increments, by name."""
        macs = tm * k * tn
        edge_feeds = tm * k + k * tn
        counts = {
            "mn_multiplications": macs,
            # operands hop PE-to-PE: each A value crosses tn PEs, each B tm
            "mn_forwarding_hops": tm * k * (tn - 1) + k * tn * (tm - 1),
            # output-stationary accumulate in the PE register file
            "rn_accumulator_ops": macs,
            "rn_outputs_written": tm * tn,
            "dn_wire_traversals": edge_feeds,
            # GB feeds the array edges once per tile
            "gb_reads": edge_feeds,
            "gb_writes": tm * tn,
        }
        return {name: amount for name, amount in counts.items() if amount}

    def _account_tile(
        self, tm: int, k: int, tn: int, count: int = 1
    ) -> None:
        """Record the activity of ``count`` tiles of one shape."""
        counts = self._tile_counts(tm, k, tn)
        self.gb.record_reads(counts.pop("gb_reads") * count)
        self.gb.record_writes(counts.pop("gb_writes") * count)
        add = self.counters.add
        for name, amount in counts.items():
            add(name, amount * count)

    def _account_tile_classes(
        self, classes: _TileClasses, repeats: int = 1
    ) -> None:
        """Account ``repeats`` GEMMs' tiles in one pass, class by class."""
        for tm, tk, tn, count in classes:
            self._account_tile(tm, tk, tn, count * repeats)

    def _tile_runs(self, m: int, k: int, n: int) -> Iterator["TileRun"]:
        """One GEMM's tiles in execution order, as ``(period, count,
        delta, span)`` runs: the tiles of a tile row that share a shape
        run back to back, so each (tile row x n-axis class) is one run of
        ``count`` tiles of ``period`` cycles, each adding ``delta`` to the
        counters under one ``PE:tile`` span."""
        stationary = self.weight_stationary
        n_classes = _axis_classes(n, self.dim)
        for extent, rows in _axis_classes(k if stationary else m, self.dim):
            tm, tk = (m, extent) if stationary else (extent, k)
            row = [
                (
                    self.tile_cycles(tm, tk, tn), count,
                    self._tile_counts(tm, tk, tn),
                    ("PE:tile", self.name,
                     {"m": tm, "k": tk, "n": tn, "macs": tm * tk * tn}),
                )
                for tn, count in n_classes
            ]
            for _ in range(rows):
                yield from row

    def _charge_stalls(
        self,
        ledger: StallLedger,
        classes: _TileClasses,
        dram_stall: int,
    ) -> None:
        """Attribute one GEMM's cycles to stall buckets.

        Charged once per GEMM (grouped ones included) from the
        ``(shape, count)`` tile classes, however the tiles were cut into
        counter writes, so attached lenses cannot move the ledger. Per tile the wavefront formula of
        :meth:`tile_cycles` decomposes exactly — useful MAC waves,
        stationary preload (WS only), the ``+tn-2``-style skew where
        edge PEs idle while the diagonal passes, and the fixed
        fill/drain overhead — so the PE-array row conserves with zero
        idle.
        """
        charge = ledger.charge
        for tm, tk, tn, count in classes:
            if self.weight_stationary:
                charge("pe_array", "weight_fill", tk * count)
                charge("pe_array", "compute_busy", tm * count)
                charge(
                    "pe_array", "edge_underutilization", (tk + tn - 2) * count
                )
            else:
                charge("pe_array", "compute_busy", tk * count)
                charge(
                    "pe_array", "edge_underutilization", (tm + tn - 2) * count
                )
            charge("pe_array", "pipeline_drain", PIPE_OVERHEAD * count)
        charge("pe_array", "dram_stall", dram_stall)

    def _charge_fabric(
        self, fabric: FabricLedger, classes: _TileClasses
    ) -> None:
        """Decompose one GEMM's activity across the array's fabric tiers.

        Like :meth:`_charge_stalls`, charged from the tile classes. The
        systolic topology is flat: the DN is the
        2 x ``dim`` edge-feed bus (west activations + north weights,
        anchored to ``dn_wire_traversals``), the MN is the ``dim x dim``
        PE grid (``mn_multiplications``), and the RN is the in-place
        accumulator file of the same grid (``rn_accumulator_ops``) — one
        level each.
        """
        edge_feeds = 0
        macs = 0
        for tm, tk, tn, count in classes:
            edge_feeds += (tm * tk + tk * tn) * count
            macs += tm * tk * tn * count
        grid = self.dim * self.dim
        fabric.charge_levels(
            "dn", "dn_wire_traversals", [edge_feeds], [2 * self.dim]
        )
        fabric.charge_levels("mn", "mn_multiplications", [macs], [grid])
        fabric.charge_levels("rn", "rn_accumulator_ops", [macs], [grid])

    def _account_dram(
        self, m: int, k: int, n: int, compute_cycles: int
    ) -> int:
        """One GEMM's :meth:`_record_dram` and its ``GB:fill`` instant."""
        stall = self._record_dram(m, k, n, compute_cycles)
        self.gb.mark_fill(m * k + k * n)
        return stall

    def _record_dram(
        self, m: int, k: int, n: int, compute_cycles: int, repeats: int = 1
    ) -> int:
        """Move ``repeats`` identical GEMMs' footprints through DRAM in one
        record each way (every record after the first hits the row the
        first opened) and count their GB fills; returns one GEMM's stall
        cycles. Nothing is traced."""
        bpe = self.config.dtype.bytes_per_element
        working_set = m * k + k * n + m * n
        reload_factor = 1
        if not self.gb.fits(working_set):
            reload_factor = math.ceil(
                working_set / self.gb.half_capacity_elements
            )
        read_bytes = (m * k + k * n) * bpe * reload_factor
        write_bytes = m * n * bpe
        self.dram.record_read(read_bytes, times=repeats)
        self.dram.record_write(write_bytes, times=repeats)
        self.gb.record_fill((m * k + k * n) * repeats)
        transfer = self.dram.transfer_cycles(read_bytes + write_bytes)
        return self.gb.dram_stall_cycles(transfer, compute_cycles)
