"""Spatially-resolved fabric utilization: the per-level DN/MN/RN ledger.

The scalar NoC counters (``dn_switch_traversals``, ``rn_adder_ops``, ...)
say *that* a network was busy; this ledger says *where*. Each network
tier decomposes its aggregate activity across its physical tree levels
(and, for fabrics whose widest level has at most :data:`LINK_DETAIL_LIMIT`
links, across individual links), and two synthetic tier-boundary FIFOs
(``gb_dn`` between the global buffer and the DN, ``rn_gb`` between the RN
and the buffer) track occupancy: accumulated pushes/pops, the per-window
high-watermark, and a bounded windowed time series.

Charging follows the stall-ledger playbook exactly
(:mod:`repro.observability.stalls`): the controllers charge at their
existing ``counters.add`` sites (inside the NoC components' own
recording methods) and from the dense segment table, the systolic
engine from its tile classes however it cut the tiles into counter
writes, and addition commutes — so the ledger does not depend on which
other lenses are attached. Per-link spreads are computed once at :meth:`finalize`
from the per-level totals (never at charge time), so charge batching
cannot perturb the payload either.

The consistency invariant, enforced at :meth:`finalize` and re-validated
by ``insight fabric`` and the differential suite: for every charged
tier, the per-level busy sums equal the layer's existing aggregate NoC
counter *exactly* (``dn`` levels sum to ``dn_switch_traversals``, and so
on for the tier's anchor counter), and every recorded FIFO's anchored
push/pop total equals its ``ctrl_fifo_*`` counter. A violation raises
:class:`FabricConsistencyError` — decompositions are never renormalized.

Ledgers ride only in ``LayerReport.extra["fabric"]``; cycles, counters
and energy are untouched, so attribution on/off payloads stay
byte-identical (pinned by ``tests/differential/test_fabric_attribution``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SimulationError

#: per-link detail is emitted for a tier only when its widest level has
#: at most this many links — "fabrics up to 256 PEs" stay fully resolved,
#: larger fabrics keep the (bounded) per-level view
LINK_DETAIL_LIMIT = 256

#: the closed set of fabric tiers the ledger accepts
FABRIC_TIERS = ("dn", "mn", "rn")

#: the closed set of tier-boundary FIFOs, each anchored to the existing
#: controller FIFO counter its push/pop totals must reproduce exactly
FIFO_ANCHORS = {
    "gb_dn": ("ctrl_fifo_pushes", "pushes"),
    "rn_gb": ("ctrl_fifo_pops", "pops"),
}

#: per-level busy metrics live in ``extra["fabric"]["tiers"]``, never in
#: a CounterSet; each name is declared in KNOWN_COUNTERS, which
#: ``tests/unit/test_fabric.py`` holds, as for stalls.BUCKET_COUNTERS
FABRIC_COUNTERS = {
    "dn": "fabric_dn_level_busy",
    "mn": "fabric_mn_level_busy",
    "rn": "fabric_rn_level_busy",
}

#: FIFO occupancy metrics live in ``extra["fabric"]["fifos"]`` — same
#: registry idiom: declared in KNOWN_COUNTERS
FIFO_OCCUPANCY_COUNTERS = {
    "depth": "fifo_occupancy_depth",
    "high_watermark": "fifo_occupancy_hwm",
    "windows": "fifo_occupancy_windows",
}

#: aggregate NoC activity counters a fabric-instrumented layer would have
#: decomposed; their presence in a layer delta with an *empty* ledger is
#: reported as visible degradation rather than silently passing
_NOC_ACTIVITY_COUNTERS = (
    "dn_switch_traversals",
    "dn_wire_traversals",
    "mn_multiplications",
    "rn_adder_ops",
    "rn_adder_ops_3to1",
    "rn_accumulator_ops",
)

#: windowed FIFO series are decimated (adjacent pairs merged, watermark
#: kept) whenever they exceed this many entries — bounded and, because
#: both engines append the same window sequence, engine-agnostic
FIFO_WINDOW_LIMIT = 64


class FabricConsistencyError(SimulationError):
    """A tier's per-level sums diverged from its aggregate counter."""


def _check_amount(kind: str, value: int) -> int:
    value = int(value)
    if value < 0:
        raise SimulationError(f"fabric ledger: negative {kind} ({value})")
    return value


class FabricLedger:
    """Per-layer accumulator for spatially-resolved fabric activity.

    One instance per observability context; :class:`~repro.engine.
    accelerator.Accelerator` resets it at layer start and finalizes it
    into ``extra["fabric"]`` at layer end, handing it the layer's
    counter delta so the consistency invariant can be enforced.
    """

    __slots__ = ("_tiers", "_fifos")

    def __init__(self) -> None:
        self._tiers: Dict[str, Dict[str, object]] = {}
        self._fifos: Dict[str, Dict[str, object]] = {}

    def reset(self) -> None:
        """Drop accumulated state at a layer boundary."""
        self._tiers.clear()
        self._fifos.clear()

    # -- charging ------------------------------------------------------
    def charge_levels(
        self,
        tier: str,
        counter: str,
        amounts: Sequence[int],
        widths: Sequence[int],
        times: int = 1,
        active: Optional[Sequence[int]] = None,
    ) -> None:
        """Add ``amounts[i] * times`` traversals to each level of a tier.

        ``widths[i]`` is the number of physical links on level ``i``
        (root-first for the DN, leaf-adjacent-first for the RN);
        ``active`` optionally narrows the links the finalize-time spread
        distributes over (e.g. the multipliers actually mapped). The
        level geometry of a tier is fixed within a layer: a later charge
        with a different shape or anchor counter is a bug and raises.
        """
        if tier not in FABRIC_TIERS:
            raise SimulationError(
                f"fabric ledger: unknown tier {tier!r} (the tier set "
                f"{FABRIC_TIERS} is closed)"
            )
        times = _check_amount("multiplier", times)
        amounts = [_check_amount(f"{tier} level charge", a) for a in amounts]
        if len(amounts) != len(widths):
            raise SimulationError(
                f"fabric ledger: {tier} charged {len(amounts)} level(s) "
                f"over {len(widths)} width(s)"
            )
        if not times or not any(amounts):
            return
        cell = self._tiers.get(tier)
        if cell is None:
            cell = {
                "counter": counter,
                "widths": [max(1, int(w)) for w in widths],
                "levels": [0] * len(amounts),
                "active": [max(1, int(w)) for w in widths],
            }
            self._tiers[tier] = cell
        if cell["counter"] != counter or len(cell["levels"]) != len(amounts):
            raise SimulationError(
                f"fabric ledger: {tier} recharged with a different shape "
                f"({counter!r} x{len(amounts)} after {cell['counter']!r} "
                f"x{len(cell['levels'])})"
            )
        levels: List[int] = cell["levels"]  # type: ignore[assignment]
        for index, amount in enumerate(amounts):
            levels[index] += amount * times
        if active is not None:
            actives: List[int] = cell["active"]  # type: ignore[assignment]
            widths_list: List[int] = cell["widths"]  # type: ignore[assignment]
            for index, count in enumerate(active):
                count = int(count)
                if 0 < count < actives[index]:
                    # narrow to the busiest narrowing seen, never below 1
                    # and never wider than the physical level
                    actives[index] = min(count, widths_list[index])

    def record_fifo(
        self,
        name: str,
        capacity: int,
        pushes: int,
        pops: int,
        depth: int,
        window_cycles: int,
    ) -> None:
        """Record one window of a tier-boundary FIFO's activity.

        ``depth`` is the window's concurrent-occupancy proxy (slots in
        flight per step); the high-watermark is the max over windows.
        """
        if name not in FIFO_ANCHORS:
            raise SimulationError(
                f"fabric ledger: unknown fifo {name!r} (the fifo set "
                f"{tuple(sorted(FIFO_ANCHORS))} is closed)"
            )
        pushes = _check_amount("fifo pushes", pushes)
        pops = _check_amount("fifo pops", pops)
        depth = _check_amount("fifo depth", depth)
        window_cycles = _check_amount("fifo window", window_cycles)
        cell = self._fifos.get(name)
        if cell is None:
            cell = {
                "capacity": max(1, int(capacity)),
                "pushes": 0,
                "pops": 0,
                "high_watermark": 0,
                "windows": [],
            }
            self._fifos[name] = cell
        cell["pushes"] = int(cell["pushes"]) + pushes
        cell["pops"] = int(cell["pops"]) + pops
        cell["high_watermark"] = max(int(cell["high_watermark"]), depth)
        windows: List[List[int]] = cell["windows"]  # type: ignore[assignment]
        windows.append([window_cycles, depth])
        if len(windows) > 2 * FIFO_WINDOW_LIMIT:
            cell["windows"] = _decimate(windows)

    # -- finalize ------------------------------------------------------
    def finalize(
        self, counters: Mapping[str, int], total_cycles: int
    ) -> Dict[str, object]:
        """Close the layer's ledger and enforce the consistency invariant.

        ``counters`` is the layer's counter delta; every charged tier's
        per-level sum must equal its anchor counter exactly, and every
        recorded FIFO's anchored total must equal its ``ctrl_fifo_*``
        counter. Layers that touched no instrumented fabric (maxpool)
        finalize to an empty ledger; a layer whose delta shows NoC
        activity the ledger never saw is flagged ``uninstrumented``
        rather than silently passing.
        """
        cycles = _check_amount("cycle total", total_cycles)
        tiers_out: Dict[str, object] = {}
        for tier in FABRIC_TIERS:
            cell = self._tiers.get(tier)
            if cell is None:
                continue
            counter = str(cell["counter"])
            levels: List[int] = list(cell["levels"])  # type: ignore[arg-type]
            widths: List[int] = list(cell["widths"])  # type: ignore[arg-type]
            active: List[int] = list(cell["active"])  # type: ignore[arg-type]
            charged = sum(levels)
            expected = int(counters.get(counter, 0))
            if charged != expected:
                raise FabricConsistencyError(
                    f"fabric tier {tier!r}: levels sum to {charged} but "
                    f"the layer's {counter} counter recorded {expected}"
                )
            utilization = [
                round(level / (width * cycles), 6) if cycles else 0.0
                for level, width in zip(levels, widths)
            ]
            links = None
            if widths and max(widths) <= LINK_DETAIL_LIMIT:
                links = [
                    _spread(level, active[i], widths[i])
                    for i, level in enumerate(levels)
                ]
            tiers_out[tier] = {
                "counter": counter,
                "levels": levels,
                "links_per_level": widths,
                "utilization": utilization,
                "links": links,
            }

        fifos_out: Dict[str, object] = {}
        for name in sorted(self._fifos):
            cell = self._fifos[name]
            anchor_counter, anchor_field = FIFO_ANCHORS[name]
            recorded = int(cell[anchor_field])  # type: ignore[arg-type]
            expected = int(counters.get(anchor_counter, 0))
            if recorded != expected:
                raise FabricConsistencyError(
                    f"fabric fifo {name!r}: recorded {recorded} "
                    f"{anchor_field} but the layer's {anchor_counter} "
                    f"counter recorded {expected}"
                )
            windows: List[List[int]] = cell["windows"]  # type: ignore[assignment]
            while len(windows) > FIFO_WINDOW_LIMIT:
                windows = _decimate(windows)
            fifos_out[name] = {
                "capacity": int(cell["capacity"]),  # type: ignore[arg-type]
                "pushes": int(cell["pushes"]),  # type: ignore[arg-type]
                "pops": int(cell["pops"]),  # type: ignore[arg-type]
                "high_watermark": int(cell["high_watermark"]),  # type: ignore[arg-type]
                "windows": [list(window) for window in windows],
            }

        payload: Dict[str, object] = {
            "tiers": tiers_out,
            "fifos": fifos_out,
            "cycles": cycles,
        }
        if not tiers_out:
            missed = sorted(
                name for name in _NOC_ACTIVITY_COUNTERS
                if int(counters.get(name, 0))
            )
            if missed:
                payload["uninstrumented"] = missed
        return payload


def _spread(total: int, active: int, width: int) -> List[int]:
    """Distribute a level total uniformly over its active links.

    Quotient everywhere, remainder to the lowest-indexed links —
    deterministic, and exact: the per-link counts sum back to ``total``.
    """
    active = max(1, min(active, width))
    quotient, remainder = divmod(total, active)
    return (
        [quotient + 1] * remainder + [quotient] * (active - remainder)
        + [0] * (width - active)
    )


def _decimate(windows: List[List[int]]) -> List[List[int]]:
    """Merge adjacent window pairs: cycles add, watermarks keep the max."""
    merged: List[List[int]] = []
    for index in range(0, len(windows), 2):
        pair = windows[index:index + 2]
        merged.append([
            sum(window[0] for window in pair),
            max(window[1] for window in pair),
        ])
    return merged


def tournament_levels(count: int) -> List[int]:
    """Per-round participant halving of ``count`` leaves, first round first.

    ``[count // 2, ...]`` until one survivor remains; the entries sum to
    exactly ``count - 1`` — the adders (or switches) a ``count``-leaf
    binary reduction/distribution actually exercises, odd counts and all.
    """
    levels: List[int] = []
    width = int(count)
    while width > 1:
        levels.append(width // 2)
        width = (width + 1) // 2
    return levels


def validate_fabric(
    fabric: Mapping[str, object],
    counters: Mapping[str, int],
    cycles: int,
) -> List[str]:
    """Re-check one finalized fabric payload; returns problem strings.

    The non-raising mirror of :meth:`FabricLedger.finalize`'s invariant,
    for ``insight fabric`` and the differential suite: tier sums against
    the layer's counters, link spreads against the level totals, FIFO
    anchors against the controller FIFO counters.
    """
    problems: List[str] = []
    tiers = fabric.get("tiers")
    if not isinstance(tiers, Mapping):
        return [f"fabric payload has no tier mapping: {fabric!r}"]
    for tier, cell in tiers.items():
        if tier not in FABRIC_TIERS:
            problems.append(f"unknown tier {tier!r}")
            continue
        counter = str(cell.get("counter", ""))
        levels = [int(v) for v in cell.get("levels", [])]
        expected = int(counters.get(counter, 0))
        if sum(levels) != expected:
            problems.append(
                f"{tier}: levels sum to {sum(levels)}, counter "
                f"{counter} recorded {expected}"
            )
        if any(level < 0 for level in levels):
            problems.append(f"{tier}: negative level charge in {levels}")
        widths = [int(v) for v in cell.get("links_per_level", [])]
        if len(widths) != len(levels):
            problems.append(
                f"{tier}: {len(levels)} level(s) but {len(widths)} width(s)"
            )
        links = cell.get("links")
        if links is not None:
            for index, row in enumerate(links):
                if index < len(levels) and sum(row) != levels[index]:
                    problems.append(
                        f"{tier} level {index}: links sum to {sum(row)}, "
                        f"level recorded {levels[index]}"
                    )
                if index < len(widths) and len(row) != widths[index]:
                    problems.append(
                        f"{tier} level {index}: {len(row)} link(s) on a "
                        f"{widths[index]}-link level"
                    )
    fifos = fabric.get("fifos")
    if isinstance(fifos, Mapping):
        for name, cell in fifos.items():
            anchor = FIFO_ANCHORS.get(name)
            if anchor is None:
                problems.append(f"unknown fifo {name!r}")
                continue
            anchor_counter, anchor_field = anchor
            recorded = int(cell.get(anchor_field, 0))
            expected = int(counters.get(anchor_counter, 0))
            if recorded != expected:
                problems.append(
                    f"fifo {name}: {recorded} {anchor_field}, counter "
                    f"{anchor_counter} recorded {expected}"
                )
    if int(fabric.get("cycles", cycles)) != int(cycles):
        problems.append(
            f"fabric cycles {fabric.get('cycles')} != layer cycles {cycles}"
        )
    return problems


def merge_fabric(
    ledgers: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Sum per-layer fabric payloads into one run-level payload.

    Levels and link counts add elementwise; FIFO pushes/pops add and
    high-watermarks keep the max; windowed series stay per-layer and are
    dropped. Layers whose tier geometry disagrees (different fabric)
    cannot be merged and raise :class:`ValueError`.
    """
    tiers: Dict[str, Dict[str, object]] = {}
    fifos: Dict[str, Dict[str, object]] = {}
    cycles = 0
    for ledger in ledgers:
        cycles += int(ledger.get("cycles", 0))
        for tier, cell in (ledger.get("tiers") or {}).items():
            into = tiers.get(tier)
            if into is None:
                tiers[tier] = {
                    "counter": cell["counter"],
                    "levels": [int(v) for v in cell["levels"]],
                    "links_per_level": list(cell["links_per_level"]),
                    "links": (
                        [list(row) for row in cell["links"]]
                        if cell.get("links") is not None else None
                    ),
                }
                continue
            if (into["counter"] != cell["counter"]
                    or into["links_per_level"] != list(cell["links_per_level"])):
                raise ValueError(
                    f"cannot merge fabric tier {tier!r}: layers disagree "
                    f"on its geometry"
                )
            into["levels"] = [
                a + int(b) for a, b in zip(into["levels"], cell["levels"])
            ]
            if into["links"] is not None and cell.get("links") is not None:
                into["links"] = [
                    [a + int(b) for a, b in zip(row_a, row_b)]
                    for row_a, row_b in zip(into["links"], cell["links"])
                ]
            else:
                into["links"] = None
        for name, cell in (ledger.get("fifos") or {}).items():
            into = fifos.get(name)
            if into is None:
                fifos[name] = {
                    "capacity": int(cell["capacity"]),
                    "pushes": int(cell["pushes"]),
                    "pops": int(cell["pops"]),
                    "high_watermark": int(cell["high_watermark"]),
                }
                continue
            into["capacity"] = max(into["capacity"], int(cell["capacity"]))
            into["pushes"] = int(into["pushes"]) + int(cell["pushes"])
            into["pops"] = int(into["pops"]) + int(cell["pops"])
            into["high_watermark"] = max(
                int(into["high_watermark"]), int(cell["high_watermark"])
            )
    for tier, cell in tiers.items():
        widths = [int(w) for w in cell["links_per_level"]]
        cell["utilization"] = [
            round(level / (width * cycles), 6) if cycles else 0.0
            for level, width in zip(cell["levels"], widths)
        ]
    return {"tiers": tiers, "fifos": fifos, "cycles": cycles}


def hottest_links(
    fabric: Mapping[str, object], top: int = 10
) -> List[Dict[str, object]]:
    """Rank individual links by traversal count across all tiers.

    Only tiers that kept per-link detail contribute; ties break on
    (tier, level, link) so the ranking is deterministic.
    """
    rows: List[Dict[str, object]] = []
    cycles = int(fabric.get("cycles", 0))
    for tier, cell in (fabric.get("tiers") or {}).items():
        links = cell.get("links")
        if links is None:
            continue
        for level, row in enumerate(links):
            for link, count in enumerate(row):
                if count:
                    rows.append({
                        "tier": tier,
                        "level": level,
                        "link": link,
                        "traversals": int(count),
                        "per_cycle": (
                            round(count / cycles, 6) if cycles else 0.0
                        ),
                    })
    rows.sort(key=lambda r: (-r["traversals"], r["tier"], r["level"], r["link"]))
    return rows[:max(0, int(top))]
