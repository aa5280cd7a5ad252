"""Cycle-exact stall attribution: where did every simulated cycle go?

The simulator reports *how many* cycles a layer took; this module
explains *why*. A :class:`StallLedger` classifies every simulated cycle
of every component into a closed taxonomy of buckets, and a
**conservation invariant** keeps the story honest: per layer and per
component, the bucket sums must equal the layer's total cycles exactly
(integer arithmetic, no rounding). Cycles a component was provably not
working are filled as ``idle`` at finalization; over-charging a
component raises :class:`StallConservationError` immediately.

The taxonomy
------------

============================ ==========================================
bucket                        meaning
============================ ==========================================
``compute_busy``              the component advanced useful work
``weight_fill``               configuration + stationary operand fill
``pipeline_drain``            fill/drain of in-flight pipeline stages
``dram_stall``                waiting on off-chip DRAM bandwidth
``noc_distribution``          distribution-network delivery bound the
                              step (Fig. 1b bandwidth starvation)
``noc_reduction``             reduction/merge throughput bound the step
``fifo_backpressure``         output/psum drain FIFOs bound the step
``edge_underutilization``     systolic wavefront skew: edge PEs idle
                              while the diagonal passes
``idle``                      provably no work for this component
============================ ==========================================

Attribution is **off by default** and arithmetically neutral: engines
charge the ledger only when one is attached
(``Observability.create(stalls=True)``), charging touches no
:class:`~repro.noc.base.CounterSet`, and the differential suite pins
that enabling it leaves cycles/counters/energy payloads byte-identical.

Both engine families charge the ledger from an aggregate form — the
dense controller's one segment table, the systolic tile classes
however the tiles were cut into counter writes — so a tracer or metrics
recorder attached beside it cannot move the ledger.

The per-bucket ``stall_*`` names below live in
:data:`repro.engine.stats.KNOWN_COUNTERS` like every other activity
name, which gives the lint pass and ``stonne insight explain`` one
shared registry of descriptions.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.errors import SimulationError

#: bucket -> registered ``stall_*`` counter name (the string literals
#: here are the canonical reference sites for the KNOWN_COUNTERS lint)
BUCKET_COUNTERS: Dict[str, str] = {
    "compute_busy": "stall_compute_busy",
    "weight_fill": "stall_weight_fill",
    "pipeline_drain": "stall_pipeline_drain",
    "dram_stall": "stall_dram_stall",
    "noc_distribution": "stall_noc_distribution",
    "noc_reduction": "stall_noc_reduction",
    "fifo_backpressure": "stall_fifo_backpressure",
    "edge_underutilization": "stall_edge_underutilization",
    "idle": "stall_idle",
}

#: the closed taxonomy, in canonical (display) order
STALL_BUCKETS = tuple(BUCKET_COUNTERS)

#: buckets that count toward "the hardware was doing compute-side work"
#: in the roofline-style bound classification
COMPUTE_BUCKETS = ("compute_busy", "edge_underutilization", "pipeline_drain")

#: buckets that mean "the hardware was starved for data movement"
BANDWIDTH_BUCKETS = (
    "weight_fill", "dram_stall", "noc_distribution", "noc_reduction",
    "fifo_backpressure",
)


class StallConservationError(SimulationError):
    """A component was charged more cycles than the layer ran."""


class StallLedger:
    """Per-layer, per-component stall accumulator.

    Engines call :meth:`charge` as they account phases; the accelerator
    calls :meth:`finalize` once per layer, which checks conservation,
    fills the ``idle`` remainder and returns the plain-dict ledger that
    travels in ``LayerReport.extra["stalls"]``.
    """

    __slots__ = ("_cells",)

    def __init__(self) -> None:
        self._cells: Dict[str, Dict[str, int]] = {}

    def reset(self) -> None:
        """Drop all charges (called at every layer start)."""
        self._cells = {}

    def charge(self, component: str, bucket: str, cycles: int) -> None:
        """Attribute ``cycles`` of ``component``'s time to ``bucket``."""
        if bucket not in BUCKET_COUNTERS:
            raise SimulationError(
                f"unknown stall bucket {bucket!r}; the taxonomy is closed "
                f"({', '.join(STALL_BUCKETS)})"
            )
        if cycles < 0:
            raise SimulationError(
                f"negative stall charge {cycles} for {component}/{bucket}"
            )
        if cycles == 0:
            return
        cells = self._cells.setdefault(component, {})
        cells[bucket] = cells.get(bucket, 0) + int(cycles)

    def finalize(self, total_cycles: int) -> Dict[str, Dict[str, int]]:
        """Close the layer: conservation-check and fill ``idle``.

        Components charged less than ``total_cycles`` get the remainder
        as ``idle`` (they provably had nothing to do); a component
        charged *more* is an accounting bug and raises. An empty ledger
        (an uninstrumented timing path) degrades to one all-idle
        ``controller`` row, which keeps the invariant trivially true and
        makes the gap visible in ``insight explain`` instead of hiding
        it.
        """
        if total_cycles < 0:
            raise SimulationError(f"negative layer cycle count {total_cycles}")
        cells = self._cells or {"controller": {}}
        out: Dict[str, Dict[str, int]] = {}
        for component in sorted(cells):
            buckets = {b: int(v) for b, v in cells[component].items() if v}
            charged = sum(buckets.values())
            if charged > total_cycles:
                raise StallConservationError(
                    f"component {component!r} charged {charged} cycles but "
                    f"the layer ran {total_cycles}"
                )
            if charged < total_cycles:
                buckets["idle"] = buckets.get("idle", 0) + total_cycles - charged
            out[component] = {b: buckets[b] for b in STALL_BUCKETS if b in buckets}
        return out


def validate_ledger(
    stalls: Mapping[str, Mapping[str, int]], cycles: int
) -> List[str]:
    """Conservation violations of a finalized ledger (empty = holds).

    Re-checked at report time (``stonne insight explain``) and by the
    test suite, so a ledger that was corrupted after finalization — or
    produced by a foreign tool — cannot masquerade as attribution.
    """
    problems: List[str] = []
    for component in sorted(stalls):
        buckets = stalls[component]
        unknown = sorted(set(buckets) - set(STALL_BUCKETS))
        if unknown:
            problems.append(
                f"{component}: unknown bucket(s) {', '.join(unknown)}"
            )
        total = sum(int(v) for b, v in buckets.items() if b in BUCKET_COUNTERS)
        if total != cycles:
            problems.append(
                f"{component}: buckets sum to {total}, layer ran {cycles}"
            )
        negative = sorted(b for b, v in buckets.items() if int(v) < 0)
        if negative:
            problems.append(
                f"{component}: negative bucket(s) {', '.join(negative)}"
            )
    return problems


def merge_ledgers(
    ledgers: List[Mapping[str, Mapping[str, int]]]
) -> Dict[str, Dict[str, int]]:
    """Sum per-layer ledgers into a run-level aggregate (same shape)."""
    merged: Dict[str, Dict[str, int]] = {}
    for ledger in ledgers:
        for component, buckets in ledger.items():
            cells = merged.setdefault(component, {})
            for bucket, value in buckets.items():
                cells[bucket] = cells.get(bucket, 0) + int(value)
    return {
        component: {
            b: merged[component][b]
            for b in STALL_BUCKETS if b in merged[component]
        }
        for component in sorted(merged)
    }


def classify_bound(buckets: Mapping[str, int]) -> str:
    """Roofline-style call for one component's bucket row.

    ``compute-bound`` when the compute-side buckets (busy + wavefront
    skew + pipeline fill/drain) dominate the data-movement buckets
    (weight fill, DRAM, NoC contention, FIFO backpressure); otherwise
    ``bandwidth-bound``. Idle cycles vote for neither side.
    """
    compute = sum(int(buckets.get(b, 0)) for b in COMPUTE_BUCKETS)
    bandwidth = sum(int(buckets.get(b, 0)) for b in BANDWIDTH_BUCKETS)
    return "compute-bound" if compute >= bandwidth else "bandwidth-bound"
