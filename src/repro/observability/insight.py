"""Cross-run analysis over the run registry: diff, gate, explain, report.

Three analyses over :mod:`repro.observability.registry` records:

- **regression sentinel** — ``diff`` compares two runs and ``check``
  compares the latest registry runs against a committed baseline file,
  keyed by (workload, config hash); deltas beyond the configured
  thresholds exit non-zero, which is what lets CI gate on them;
- **stall attribution** — ``explain`` reads the cycle-exact stall
  ledgers recorded with ``--stalls`` (:mod:`repro.observability.stalls`):
  every cycle in one of nine buckets, and a compute- / bandwidth-bound
  call per layer and per run. It is the only source of a bound;
- **HTML report** — a self-contained page (inline SVG + CSS, no
  JavaScript) with the run timeline (layer windows coloured by their
  ledger bound when the run has ledgers), the top layers by cycles, the
  stall and fabric blocks, and — when a baseline is given — the
  regression table.

Runnable as a module (also reachable as ``stonne insight ...``)::

    python -m repro.observability.insight list
    python -m repro.observability.insight diff <run> <run>
    python -m repro.observability.insight check --baseline baseline.json
    python -m repro.observability.insight explain latest
    python -m repro.observability.insight report latest -o report.html
    python -m repro.observability.insight fabric latest

``fabric`` (and the matching report section) reads the spatially-
resolved per-level DN/MN/RN ledgers recorded with ``--fabric`` — see
:mod:`repro.observability.fabric`.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.observability.fabric import (
    FABRIC_TIERS,
    hottest_links,
    merge_fabric,
    validate_fabric,
)
from repro.observability.registry import RunRecord, RunRegistry
from repro.observability.stalls import (
    STALL_BUCKETS,
    classify_bound,
    merge_ledgers,
    validate_ledger,
)

#: baseline file schema version
BASELINE_SCHEMA = 1


# ----------------------------------------------------------------------
# stall-ledger explanation (cycle-exact, from extra["stalls"])
# ----------------------------------------------------------------------
def primary_stall_row(stalls: Mapping[str, Mapping[str, int]]) -> Tuple[str, Dict[str, int]]:
    """The component whose accounting is exhaustive for the layer.

    Every component row sums to the layer's cycles, so summing rows
    would double-count; the layer-level story is the row with the least
    ``idle`` filler — the component that was actually orchestrating
    (dense/sparse ``controller``, systolic ``pe_array``), whose every
    cycle is attributed to a real cause.
    """
    component = min(sorted(stalls), key=lambda c: int(stalls[c].get("idle", 0)))
    return component, {b: int(v) for b, v in stalls[component].items()}


def explain_record(record: RunRecord) -> Dict[str, object]:
    """Cycle-exact stall attribution of one registered run.

    Raises :class:`ValueError` with an actionable message when the run
    carries no ledgers (it was recorded without ``--stalls``).
    Conservation is re-validated here — a ledger that stopped summing to
    its layer's cycles is reported, never silently renormalized.
    """
    layers: List[Dict[str, object]] = []
    violations: List[str] = []
    ledgers: List[Mapping[str, Mapping[str, int]]] = []
    totals: Dict[str, int] = {bucket: 0 for bucket in STALL_BUCKETS}
    attributed = 0
    total = record.total_cycles or 0
    for index, layer in enumerate(record.layers):
        stalls = layer.get("stalls")
        if stalls is None:
            continue
        name = layer.get("name", f"layer[{index}]")
        cycles = int(layer.get("cycles", 0))
        violations += [
            f"{name}: {problem}"
            for problem in validate_ledger(stalls, cycles)
        ]
        component, buckets = primary_stall_row(stalls)
        for bucket, value in buckets.items():
            if bucket in totals:
                totals[bucket] += value
        attributed += cycles
        ledgers.append(stalls)
        layers.append({
            "layer": name,
            "kind": layer.get("kind", "?"),
            "cycles": cycles,
            "share": (cycles / total) if total else 0.0,
            "bound": classify_bound(buckets),
            "primary_component": component,
            "buckets": {b: buckets.get(b, 0) for b in STALL_BUCKETS},
            "components": stalls,
        })
    if not layers:
        raise ValueError(
            f"run {record.run_id} has no stall ledgers — re-run the "
            f"workload with --stalls (CLI) or "
            f"Observability.create(stalls=True) (API) to record "
            f"attribution"
        )
    return {
        "run_id": record.run_id,
        "workload": record.workload,
        "config_name": record.config_name,
        "config_hash": record.config_hash,
        "total_cycles": total,
        "attributed_cycles": attributed,
        "coverage": (attributed / total) if total else 1.0,
        "bound": classify_bound(totals),
        "buckets": totals,
        "components": merge_ledgers(list(ledgers)),
        "layers": layers,
        "conservation": {"ok": not violations, "violations": violations},
    }


def explain_diff(old: RunRecord, new: RunRecord) -> Dict[str, object]:
    """Attribute the cycle delta between two runs to stall buckets.

    With full attribution coverage on both sides, the per-bucket deltas
    sum exactly to the total cycle delta — the answer to "the run got
    1.2k cycles slower; *which cause* got slower?".
    """
    old_explained = explain_record(old)
    new_explained = explain_record(new)
    buckets = {
        bucket: {
            "old": old_explained["buckets"][bucket],
            "new": new_explained["buckets"][bucket],
            "delta": (new_explained["buckets"][bucket]
                      - old_explained["buckets"][bucket]),
        }
        for bucket in STALL_BUCKETS
    }
    violations = (old_explained["conservation"]["violations"]
                  + new_explained["conservation"]["violations"])
    return {
        "old_run": old.run_id,
        "new_run": new.run_id,
        "workload_match": old.workload == new.workload,
        "config_match": (bool(old.config_hash)
                         and old.config_hash == new.config_hash),
        "old_cycles": old_explained["attributed_cycles"],
        "new_cycles": new_explained["attributed_cycles"],
        "cycle_delta": (new_explained["attributed_cycles"]
                        - old_explained["attributed_cycles"]),
        "old_bound": old_explained["bound"],
        "new_bound": new_explained["bound"],
        "buckets": buckets,
        "conservation": {"ok": not violations, "violations": violations},
    }


#: short column labels for the 9-bucket text table
_BUCKET_ABBREV = {
    "compute_busy": "busy",
    "weight_fill": "wfill",
    "pipeline_drain": "drain",
    "dram_stall": "dram",
    "noc_distribution": "dn",
    "noc_reduction": "rn",
    "fifo_backpressure": "fifo",
    "edge_underutilization": "edge",
    "idle": "idle",
}


def _format_explain_text(result: Mapping, top: int) -> str:
    lines = [
        f"run {result['run_id']}  {result['workload']}  "
        f"config {result['config_hash'] or result['config_name']}",
        f"{result['total_cycles']:,} cycles over "
        f"{len(result['layers'])} attributed layer(s), "
        f"coverage {result['coverage']:.1%} — {result['bound']}",
        "",
        "where the cycles went (run level):",
    ]
    total = result["attributed_cycles"] or 1
    for bucket in STALL_BUCKETS:
        cycles = result["buckets"][bucket]
        if not cycles:
            continue
        bar = "#" * max(1, round(40 * cycles / total))
        lines.append(f"  {bucket:<22s} {cycles:>12,d} "
                     f"{cycles / total:>6.1%}  {bar}")
    lines.append("")
    ranked = sorted(result["layers"],
                    key=lambda row: (-row["cycles"], row["layer"]))[:top]
    header = (f"{'layer':<26s} {'kind':<8s} {'cycles':>10s} {'share':>6s} "
              f"{'bound':<16s}")
    header += "".join(f"{_BUCKET_ABBREV[b]:>6s}" for b in STALL_BUCKETS)
    lines.append(f"top {len(ranked)} layers by cycles:")
    lines.append(header)
    for row in ranked:
        cycles = row["cycles"] or 1
        line = (f"{row['layer'][:26]:<26s} {row['kind']:<8s} "
                f"{row['cycles']:>10,d} {row['share']:>6.1%} "
                f"{row['bound']:<16s}")
        line += "".join(
            f"{row['buckets'][b] / cycles:>6.0%}" for b in STALL_BUCKETS
        )
        lines.append(line)
    return "\n".join(lines) + "\n"


def _format_explain_diff_text(result: Mapping) -> str:
    lines = [
        f"{result['old_run']} -> {result['new_run']}: "
        f"{result['old_cycles']:,} -> {result['new_cycles']:,} cycles "
        f"({result['cycle_delta']:+,d}); "
        f"{result['old_bound']} -> {result['new_bound']}",
        "",
        f"{'bucket':<22s} {'old':>12s} {'new':>12s} {'delta':>12s}",
    ]
    for bucket in STALL_BUCKETS:
        delta = result["buckets"][bucket]
        if not (delta["old"] or delta["new"]):
            continue
        lines.append(f"{bucket:<22s} {delta['old']:>12,d} "
                     f"{delta['new']:>12,d} {delta['delta']:>+12,d}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# fabric observatory (spatially-resolved, from extra["fabric"])
# ----------------------------------------------------------------------
def fabric_record(record: RunRecord) -> Dict[str, object]:
    """Spatially-resolved fabric view of one registered run.

    Merges the per-layer fabric ledgers into a run-level payload (levels
    and link counts add, FIFO watermarks keep the max), re-validates the
    consistency invariant of every layer against its own counter delta,
    and ranks the hottest individual links. Raises :class:`ValueError`
    with an actionable message when the run carries no fabric ledgers
    (it was recorded without ``--fabric``).
    """
    ledgers: List[Mapping[str, object]] = []
    layers: List[Dict[str, object]] = []
    violations: List[str] = []
    uninstrumented: List[str] = []
    covered = 0
    total = record.total_cycles or 0
    for index, layer in enumerate(record.layers):
        fabric = layer.get("fabric")
        if fabric is None:
            continue
        name = layer.get("name", f"layer[{index}]")
        cycles = int(layer.get("cycles", 0))
        counters = layer.get("counters", {})
        violations += [
            f"{name}: {problem}"
            for problem in validate_fabric(fabric, counters, cycles)
        ]
        if fabric.get("uninstrumented"):
            uninstrumented.append(name)
        tiers = fabric.get("tiers") or {}
        if not tiers:
            # a layer that touched no instrumented fabric (e.g. maxpool)
            # contributes nothing spatial; keep it out of the merge so
            # tier geometry checks only compare fabric-active layers
            continue
        covered += cycles
        ledgers.append(fabric)
        row: Dict[str, object] = {
            "layer": name,
            "kind": layer.get("kind", "?"),
            "cycles": cycles,
            "share": (cycles / total) if total else 0.0,
        }
        for tier in FABRIC_TIERS:
            utilization = (tiers.get(tier) or {}).get("utilization") or []
            row[tier] = max(utilization) if utilization else 0.0
        row["fifo_hwm"] = {
            fifo_name: int(cell.get("high_watermark", 0))
            for fifo_name, cell in (fabric.get("fifos") or {}).items()
        }
        layers.append(row)
    if not ledgers:
        raise ValueError(
            f"run {record.run_id} has no fabric ledgers — re-run the "
            f"workload with --fabric (CLI) or "
            f"Observability.create(fabric=True) (API) to record the "
            f"fabric observatory"
        )
    merged = merge_fabric(ledgers)
    return {
        "run_id": record.run_id,
        "workload": record.workload,
        "config_name": record.config_name,
        "config_hash": record.config_hash,
        "total_cycles": total,
        "covered_cycles": covered,
        "coverage": (covered / total) if total else 1.0,
        "fabric": merged,
        "hottest_links": hottest_links(merged),
        "layers": layers,
        "uninstrumented": uninstrumented,
        "consistency": {"ok": not violations, "violations": violations},
    }


def _format_fabric_text(result: Mapping, top: int) -> str:
    lines = [
        f"run {result['run_id']}  {result['workload']}  "
        f"config {result['config_hash'] or result['config_name']}",
        f"{result['total_cycles']:,} cycles, fabric ledgers on "
        f"{len(result['layers'])} layer(s), "
        f"coverage {result['coverage']:.1%}",
    ]
    fabric = result["fabric"]
    tiers = fabric.get("tiers") or {}
    for tier in FABRIC_TIERS:
        cell = tiers.get(tier)
        if cell is None:
            continue
        lines.append("")
        lines.append(f"{tier.upper()} (anchor {cell['counter']}):")
        lines.append(f"  {'level':>5s} {'links':>6s} {'busy':>14s} "
                     f"{'util/link':>10s}")
        for index, level in enumerate(cell["levels"]):
            width = cell["links_per_level"][index]
            util = cell["utilization"][index]
            bar = "#" * max(0, min(40, round(40 * util)))
            lines.append(f"  {index:>5d} {width:>6d} {level:>14,d} "
                         f"{util:>10.2%}  {bar}")
    fifos = fabric.get("fifos") or {}
    if fifos:
        lines.append("")
        lines.append("tier-boundary FIFO occupancy:")
        lines.append(f"  {'fifo':<8s} {'cap':>4s} {'pushes':>12s} "
                     f"{'pops':>12s} {'hwm':>4s}")
        for name in sorted(fifos):
            cell = fifos[name]
            flag = ("  NEAR CAPACITY"
                    if int(cell["high_watermark"]) >= int(cell["capacity"])
                    else "")
            lines.append(f"  {name:<8s} {cell['capacity']:>4d} "
                         f"{cell['pushes']:>12,d} {cell['pops']:>12,d} "
                         f"{cell['high_watermark']:>4d}{flag}")
    links = result["hottest_links"][:max(0, int(top))]
    if links:
        lines.append("")
        lines.append(f"hottest {len(links)} link(s):")
        lines.append(f"  {'tier':<5s} {'level':>5s} {'link':>5s} "
                     f"{'traversals':>12s} {'per cycle':>10s}")
        for row in links:
            lines.append(f"  {row['tier']:<5s} {row['level']:>5d} "
                         f"{row['link']:>5d} {row['traversals']:>12,d} "
                         f"{row['per_cycle']:>10.4f}")
    ranked = sorted(result["layers"],
                    key=lambda row: (-row["cycles"], row["layer"]))[:top]
    if ranked:
        lines.append("")
        lines.append(f"top {len(ranked)} layers by cycles "
                     f"(peak level utilization):")
        lines.append(f"  {'layer':<26s} {'kind':<8s} {'cycles':>10s} "
                     f"{'share':>6s} {'dn':>7s} {'mn':>7s} {'rn':>7s}")
        for row in ranked:
            lines.append(f"  {row['layer'][:26]:<26s} {row['kind']:<8s} "
                         f"{row['cycles']:>10,d} {row['share']:>6.1%} "
                         f"{row['dn']:>7.1%} {row['mn']:>7.1%} "
                         f"{row['rn']:>7.1%}")
    if result["uninstrumented"]:
        lines.append("")
        lines.append("WARNING: NoC activity without fabric instrumentation "
                     "in: " + ", ".join(result["uninstrumented"]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# regression sentinel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Thresholds:
    """Relative-delta gates, in percent; ``None`` disables an axis."""

    cycles_pct: Optional[float] = 0.0
    energy_pct: Optional[float] = 0.5
    wall_pct: Optional[float] = None


def _pct(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / old * 100.0


def diff_records(
    old: RunRecord, new: RunRecord, thresholds: Thresholds = Thresholds()
) -> Dict[str, object]:
    """Compare two registered runs; flags deltas beyond the thresholds.

    Cycles and energy are gated on absolute relative delta (a change in
    either direction means the runs no longer agree); wall-clock — when
    gated at all — only on increases, since hosts differ.
    """
    deltas = {
        "cycles": {
            "old": old.total_cycles, "new": new.total_cycles,
            "pct": _pct(old.total_cycles, new.total_cycles),
        },
        "energy_total_uj": {
            "old": old.energy_total_uj, "new": new.energy_total_uj,
            "pct": _pct(old.energy_total_uj, new.energy_total_uj),
        },
    }
    if old.wall_clock_s is not None and new.wall_clock_s is not None:
        deltas["wall_clock_s"] = {
            "old": old.wall_clock_s, "new": new.wall_clock_s,
            "pct": _pct(old.wall_clock_s, new.wall_clock_s),
        }

    violations: List[str] = []
    if (thresholds.cycles_pct is not None
            and abs(deltas["cycles"]["pct"]) > thresholds.cycles_pct):
        violations.append(
            f"cycles {old.total_cycles} -> {new.total_cycles} "
            f"({deltas['cycles']['pct']:+.3f}% > ±{thresholds.cycles_pct}%)"
        )
    if (thresholds.energy_pct is not None
            and abs(deltas["energy_total_uj"]["pct"]) > thresholds.energy_pct):
        violations.append(
            f"energy {old.energy_total_uj:.4f} -> {new.energy_total_uj:.4f} uJ "
            f"({deltas['energy_total_uj']['pct']:+.3f}% "
            f"> ±{thresholds.energy_pct}%)"
        )
    if (thresholds.wall_pct is not None and "wall_clock_s" in deltas
            and deltas["wall_clock_s"]["pct"] > thresholds.wall_pct):
        violations.append(
            f"wall-clock {old.wall_clock_s:.3f}s -> {new.wall_clock_s:.3f}s "
            f"({deltas['wall_clock_s']['pct']:+.1f}% > +{thresholds.wall_pct}%)"
        )

    old_layers = {(i, l.get("name")): l for i, l in enumerate(old.layers)}
    layer_deltas: List[Dict[str, object]] = []
    for i, layer in enumerate(new.layers):
        key = (i, layer.get("name"))
        base = old_layers.get(key)
        if base is None:
            layer_deltas.append({"layer": layer.get("name"), "status": "added"})
            continue
        if int(base.get("cycles", 0)) != int(layer.get("cycles", 0)):
            layer_deltas.append({
                "layer": layer.get("name"),
                "status": "changed",
                "old_cycles": int(base.get("cycles", 0)),
                "new_cycles": int(layer.get("cycles", 0)),
                "pct": _pct(base.get("cycles", 0), layer.get("cycles", 0)),
            })
    if len(old.layers) != len(new.layers):
        violations.append(
            f"layer count {len(old.layers)} -> {len(new.layers)}"
        )

    return {
        "old_run": old.run_id,
        "new_run": new.run_id,
        "workload_match": old.workload == new.workload,
        "config_match": (bool(old.config_hash)
                         and old.config_hash == new.config_hash),
        "deltas": deltas,
        "layer_deltas": layer_deltas,
        "violations": violations,
        "ok": not violations,
    }


#: the baseline-entry fields ``check`` reads and their JSON types; all
#: but ``energy_total_uj`` are required
_ENTRY_FIELDS: Dict[str, Union[type, Tuple[type, ...]]] = {
    "workload": str,
    "config_hash": str,
    "total_cycles": (int, float),
    "energy_total_uj": (int, float),
}


def load_baseline(path: Path) -> Dict:
    """Read and structurally validate a committed baseline file.

    Every malformed shape is a :class:`ValueError` naming the field, so
    ``check`` exits 2 with the message instead of failing mid-gate.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not isinstance(
            payload.get("baselines"), list):
        raise ValueError(f"{path}: baseline file needs a 'baselines' list")
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {payload.get('schema')!r} != "
            f"{BASELINE_SCHEMA}"
        )
    thresholds = payload.get("thresholds", {})
    if not isinstance(thresholds, dict) or not all(
            value is None or isinstance(value, (int, float))
            for value in thresholds.values()):
        raise ValueError(
            f"{path}: 'thresholds' must map each axis to a number or null"
        )
    for index, entry in enumerate(payload["baselines"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: baselines[{index}] is not an object")
        for key, kind in _ENTRY_FIELDS.items():
            if key not in entry and key != "energy_total_uj":
                raise ValueError(
                    f"{path}: baselines[{index}] missing {key!r}"
                )
            if key in entry and not isinstance(entry[key], kind):
                raise ValueError(
                    f"{path}: baselines[{index}][{key!r}] must be a "
                    f"{'string' if kind is str else 'number'}"
                )
    return payload


def baseline_thresholds(payload: Mapping,
                        override: Optional[Thresholds] = None) -> Thresholds:
    """The gates a baseline file sets; ``null`` disables an axis."""
    if override is not None:
        return override
    raw = payload.get("thresholds", {})

    def gate(axis: str, default: float) -> Optional[float]:
        value = raw.get(axis, default)
        return None if value is None else float(value)

    return Thresholds(cycles_pct=gate("cycles_pct", 0.0),
                      energy_pct=gate("energy_pct", 0.5))


def check_baseline(
    registry: RunRegistry,
    baseline: Mapping,
    thresholds: Optional[Thresholds] = None,
) -> Tuple[List[Dict[str, object]], bool]:
    """Gate the latest registry runs against every baseline entry.

    For each (workload, config hash) entry the newest matching run is
    compared; a missing run fails the check — a sentinel that silently
    skips workloads is not a sentinel.
    """
    gates = baseline_thresholds(baseline, thresholds)
    results: List[Dict[str, object]] = []
    ok = True
    for entry in baseline["baselines"]:
        record = registry.latest(
            workload=entry["workload"], config_hash=entry["config_hash"]
        )
        if record is None:
            results.append({
                "workload": entry["workload"],
                "config_hash": entry["config_hash"],
                "status": "missing",
                "detail": "no registered run for this (workload, config)",
            })
            ok = False
            continue
        violations: List[str] = []
        cycles_pct = _pct(entry["total_cycles"], record.total_cycles)
        if gates.cycles_pct is not None and abs(cycles_pct) > gates.cycles_pct:
            violations.append(
                f"cycles {entry['total_cycles']} -> {record.total_cycles} "
                f"({cycles_pct:+.3f}%)"
            )
        if "energy_total_uj" in entry and gates.energy_pct is not None:
            energy_pct = _pct(entry["energy_total_uj"], record.energy_total_uj)
            if abs(energy_pct) > gates.energy_pct:
                violations.append(
                    f"energy {entry['energy_total_uj']:.4f} -> "
                    f"{record.energy_total_uj:.4f} uJ ({energy_pct:+.3f}%)"
                )
        results.append({
            "workload": entry["workload"],
            "config_hash": entry["config_hash"],
            "run_id": record.run_id,
            "status": "ok" if not violations else "regressed",
            "baseline_cycles": entry["total_cycles"],
            "run_cycles": record.total_cycles,
            "cycles_pct": cycles_pct,
            "detail": "; ".join(violations),
        })
        ok = ok and not violations
    return results, ok


#: the record fields one baseline entry pins, in file order
_EXPORTED_FIELDS = ("workload", "config_name", "config_hash", "total_cycles",
                    "total_macs", "energy_total_uj", "run_id", "created_utc")


def export_baseline(records: Sequence[RunRecord],
                    thresholds: Thresholds = Thresholds()) -> Dict:
    """Baseline payload pinning the given runs (one entry per record)."""
    return {
        "schema": BASELINE_SCHEMA,
        "thresholds": {
            "cycles_pct": thresholds.cycles_pct,
            "energy_pct": thresholds.energy_pct,
        },
        "baselines": [
            {key: getattr(record, key) for key in _EXPORTED_FIELDS}
            for record in records
        ],
    }


# ----------------------------------------------------------------------
# HTML report (inline SVG, no JavaScript)
# ----------------------------------------------------------------------
#: timeline colors for the stall ledger's roofline call; a layer without
#: a ledger gets the neutral grey and no call
_ROOFLINE_COLORS = {
    "compute-bound": "#4c78a8",
    "bandwidth-bound": "#f58518",
}
_NO_CALL_COLOR = "#b5b5b5"

#: the stall breakdown draws at most this many layers (largest first);
#: the report states the truncation explicitly rather than hiding it
BREAKDOWN_MAX_LAYERS = 48

#: stall-bucket colors for the stacked breakdown (compute-side blues and
#: greens, data-movement-side warm tones, idle grey)
_STALL_COLORS = {
    "compute_busy": "#4c78a8",
    "edge_underutilization": "#9ecae9",
    "pipeline_drain": "#54a24b",
    "weight_fill": "#eeca3b",
    "dram_stall": "#e45756",
    "noc_distribution": "#f58518",
    "noc_reduction": "#b279a2",
    "fifo_backpressure": "#ff9da6",
    "idle": "#dddddd",
}


def _esc(value: object) -> str:
    return html.escape(str(value))


def _layer_rows(record: RunRecord,
                explained: Optional[Mapping]) -> List[Dict[str, object]]:
    """Every layer in execution order, with its ledger call if it has one.

    ``bound`` is the layer's row of :func:`explain_record` (which covers
    exactly the layers that carry a stall ledger), ``None`` elsewhere.
    """
    calls = iter(row["bound"] for row in (explained or {}).get("layers", ()))
    total = record.total_cycles or 0
    rows: List[Dict[str, object]] = []
    for layer in record.layers:
        cycles = int(layer.get("cycles", 0))
        rows.append({
            "layer": layer.get("name", "?"),
            "kind": layer.get("kind", "?"),
            "cycles": cycles,
            "share": (cycles / total) if total else 0.0,
            "bound": (next(calls) if layer.get("stalls") is not None
                      else None),
        })
    return rows


def _timeline_svg(record: RunRecord, rows: List[Dict], width: int = 940,
                  height: int = 56) -> str:
    """One horizontal bar: layer windows colored by their ledger call."""
    total = record.total_cycles
    if not total or not rows:
        return "<p>(no cycles recorded)</p>"
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="run timeline">'
    ]
    x = 0.0
    for row in rows:
        w = width * row["cycles"] / total
        color = _ROOFLINE_COLORS.get(row["bound"], _NO_CALL_COLOR)
        title = (f"{row['layer']} ({row['kind']}): {row['cycles']} cycles, "
                 f"{row['share']:.1%}")
        if row["bound"]:
            title += f", {row['bound']}"
        parts.append(
            f'<rect x="{x:.2f}" y="8" width="{max(w, 0.5):.2f}" height="32" '
            f'fill="{color}" stroke="#ffffff" stroke-width="0.5">'
            f"<title>{_esc(title)}</title></rect>"
        )
        x += w
    parts.append(
        f'<text x="0" y="{height - 4}" font-size="11" fill="#555">0</text>'
        f'<text x="{width}" y="{height - 4}" font-size="11" fill="#555" '
        f'text-anchor="end">{total} cycles</text></svg>'
    )
    return "".join(parts)


def _ranking_table(rows: List[Dict], n: int) -> str:
    ranked = sorted(rows, key=lambda r: (-r["cycles"], r["layer"]))[:n]
    body = "".join(
        "<tr>"
        f"<td>{_esc(row['layer'])}</td><td>{_esc(row['kind'])}</td>"
        f"<td class='num'>{row['cycles']}</td>"
        f"<td class='num'>{row['share']:.1%}</td>"
        "</tr>"
        for row in ranked
    )
    return (
        "<table><thead><tr><th>layer</th><th>kind</th><th>cycles</th>"
        "<th>share</th></tr></thead><tbody>" + body + "</tbody></table>"
    )


def _stall_breakdown_svg(layers: List[Dict], cell: int = 22,
                         label_w: int = 220, bar_w: int = 640) -> str:
    """Per-layer stacked bars: each layer's cycles split by stall bucket."""
    shown = sorted(layers, key=lambda r: -r["cycles"])[:BREAKDOWN_MAX_LAYERS]
    shown.sort(key=lambda r: layers.index(r))  # back to execution order
    width = label_w + bar_w + 8
    height = 6 + cell * len(shown)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="stall breakdown">'
    ]
    for j, row in enumerate(shown):
        y = 4 + j * cell
        parts.append(
            f'<text x="{label_w - 6}" y="{y + cell / 2 + 3}" font-size="10" '
            f'text-anchor="end" fill="#333">{_esc(row["layer"][:34])}</text>'
        )
        cycles = row["cycles"] or 1
        x = float(label_w)
        for bucket in STALL_BUCKETS:
            value = row["buckets"].get(bucket, 0)
            if not value:
                continue
            w = bar_w * value / cycles
            title = (f"{row['layer']} {bucket}: {value} cycles "
                     f"({value / cycles:.1%})")
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
                f'height="{cell - 4}" fill="{_STALL_COLORS[bucket]}" '
                f'stroke="#fff" stroke-width="0.5">'
                f"<title>{_esc(title)}</title></rect>"
            )
            x += w
    parts.append("</svg>")
    note = ""
    if len(layers) > len(shown):
        note = (f"<p class='note'>showing the {len(shown)} most "
                f"cycle-expensive of {len(layers)} layers</p>")
    return "".join(parts) + note


def _stall_sections(explained: Optional[Mapping]) -> List[str]:
    """The 'Stall attribution' report block (empty without ledgers)."""
    if explained is None:
        return []
    total = explained["attributed_cycles"] or 1
    legend = "".join(
        f"<span><span class='dot' style='background:{color}'></span>"
        f"{bucket}</span>"
        for bucket, color in _STALL_COLORS.items()
        if explained["buckets"].get(bucket)
    )
    bucket_rows = "".join(
        f"<tr><th>{_esc(bucket)}</th>"
        f"<td class='num'>{explained['buckets'][bucket]:,}</td>"
        f"<td class='num'>{explained['buckets'][bucket] / total:.1%}</td></tr>"
        for bucket in STALL_BUCKETS if explained["buckets"][bucket]
    )
    conservation = (
        "<p class='note'>conservation: every component's buckets sum to "
        "its layer's cycles exactly</p>"
        if explained["conservation"]["ok"] else
        "<p class='note' style='color:#c00'>conservation VIOLATED: "
        + _esc("; ".join(explained["conservation"]["violations"][:5]))
        + "</p>"
    )
    return [
        f"<h2>Stall attribution — {_esc(explained['bound'])}</h2>",
        f"<div class='legend'>{legend}</div>",
        _stall_breakdown_svg(explained["layers"]),
        f"<table>{bucket_rows}</table>",
        conservation,
    ]


#: tier accent colors for the fabric tree heatmap
_FABRIC_TIER_COLORS = {
    "dn": "#f58518",
    "mn": "#4c78a8",
    "rn": "#54a24b",
}


def _fabric_tree_svg(fabric: Mapping, label_w: int = 90,
                     max_w: int = 840) -> str:
    """Per-tier tree heatmap: one row per level, one cell per link.

    Cell opacity scales with the link's traversal count relative to the
    tier's busiest link; tiers without per-link detail (widest level
    beyond the link-detail limit) fall back to one cell per level shaded
    by that level's utilization.
    """
    tiers = fabric.get("tiers") or {}
    parts: List[str] = []
    y = 0
    rows: List[str] = []
    for tier in FABRIC_TIERS:
        cell = tiers.get(tier)
        if cell is None:
            continue
        color = _FABRIC_TIER_COLORS[tier]
        levels: List[int] = [int(v) for v in cell["levels"]]
        widths: List[int] = [int(v) for v in cell["links_per_level"]]
        links = cell.get("links")
        peak = max(
            (max(row) for row in links if row), default=0
        ) if links else 0
        row_h = 16
        for index, level_total in enumerate(levels):
            rows.append(
                f'<text x="{label_w - 6}" y="{y + row_h - 4}" '
                f'font-size="10" text-anchor="end" fill="#333">'
                f"{tier} L{index}</text>"
            )
            if links is not None and peak:
                row = links[index]
                cell_w = max(2.0, min(22.0, max_w / max(1, len(row))))
                for link, count in enumerate(row):
                    opacity = max(0.05, count / peak) if count else 0.04
                    title = (f"{tier} level {index} link {link}: "
                             f"{count} traversals")
                    rows.append(
                        f'<rect x="{label_w + link * cell_w:.1f}" y="{y}" '
                        f'width="{max(cell_w - 1, 1):.1f}" '
                        f'height="{row_h - 2}" fill="{color}" '
                        f'fill-opacity="{opacity:.3f}" stroke="#eee" '
                        f'stroke-width="0.5">'
                        f"<title>{_esc(title)}</title></rect>"
                    )
            else:
                utilization = float(cell["utilization"][index])
                title = (f"{tier} level {index}: {level_total} traversals "
                         f"over {widths[index]} links "
                         f"({utilization:.1%} busy)")
                rows.append(
                    f'<rect x="{label_w}" y="{y}" width="{max_w}" '
                    f'height="{row_h - 2}" fill="{color}" '
                    f'fill-opacity="{max(0.05, utilization):.3f}" '
                    f'stroke="#eee" stroke-width="0.5">'
                    f"<title>{_esc(title)}</title></rect>"
                )
            y += row_h
        y += 6
    if not rows:
        return "<p>(no fabric tiers charged)</p>"
    width = label_w + max_w + 8
    parts.append(
        f'<svg viewBox="0 0 {width} {y}" width="{width}" height="{y}" '
        f'role="img" aria-label="fabric tree heatmap">'
    )
    parts += rows
    parts.append("</svg>")
    return "".join(parts)


def _fabric_fifo_table(fifos: Mapping) -> str:
    body = "".join(
        "<tr class='{cls}'>"
        "<td><code>{name}</code></td><td class='num'>{cap}</td>"
        "<td class='num'>{pushes:,}</td><td class='num'>{pops:,}</td>"
        "<td class='num'>{hwm}</td><td>{note}</td></tr>".format(
            cls="bad" if cell["high_watermark"] >= cell["capacity"] else "",
            name=_esc(name),
            cap=cell["capacity"],
            pushes=cell["pushes"],
            pops=cell["pops"],
            hwm=cell["high_watermark"],
            note=("hit capacity — backpressure risk"
                  if cell["high_watermark"] >= cell["capacity"] else ""),
        )
        for name, cell in sorted(fifos.items())
    )
    return (
        "<table><thead><tr><th>fifo</th><th>capacity</th><th>pushes</th>"
        "<th>pops</th><th>high watermark</th><th></th></tr></thead>"
        "<tbody>" + body + "</tbody></table>"
    )


def _fabric_sections(record: RunRecord) -> List[str]:
    """The 'Fabric observatory' report block (empty without ledgers)."""
    try:
        result = fabric_record(record)
    except ValueError:
        return []
    fabric = result["fabric"]
    sections = [
        "<h2>Fabric observatory — per-level utilization</h2>",
        _fabric_tree_svg(fabric),
    ]
    links = result["hottest_links"][:5]
    if links:
        hottest = "".join(
            f"<tr><td>{_esc(row['tier'])}</td>"
            f"<td class='num'>{row['level']}</td>"
            f"<td class='num'>{row['link']}</td>"
            f"<td class='num'>{row['traversals']:,}</td>"
            f"<td class='num'>{row['per_cycle']:.4f}</td></tr>"
            for row in links
        )
        sections.append(
            "<h3>Hottest links</h3>"
            "<table><thead><tr><th>tier</th><th>level</th><th>link</th>"
            "<th>traversals</th><th>per cycle</th></tr></thead><tbody>"
            + hottest + "</tbody></table>"
        )
    fifos = fabric.get("fifos") or {}
    if fifos:
        sections.append("<h3>Tier-boundary FIFO occupancy</h3>")
        sections.append(_fabric_fifo_table(fifos))
    sections.append(
        "<p class='note'>consistency: every tier's per-level busy sums "
        "equal the layer's aggregate NoC counters exactly</p>"
        if result["consistency"]["ok"] else
        "<p class='note' style='color:#c00'>consistency VIOLATED: "
        + _esc("; ".join(result["consistency"]["violations"][:5]))
        + "</p>"
    )
    return sections


def _regression_table(results: List[Dict]) -> str:
    body = "".join(
        "<tr class='{cls}'>"
        "<td>{workload}</td><td><code>{chash}</code></td><td>{status}</td>"
        "<td class='num'>{base}</td><td class='num'>{run}</td>"
        "<td class='num'>{pct}</td><td>{detail}</td></tr>".format(
            cls="bad" if result["status"] != "ok" else "good",
            workload=_esc(result["workload"]),
            chash=_esc(result["config_hash"][:8]),
            status=_esc(result["status"]),
            base=_esc(result.get("baseline_cycles", "-")),
            run=_esc(result.get("run_cycles", "-")),
            pct=(f"{result['cycles_pct']:+.3f}%"
                 if "cycles_pct" in result else "-"),
            detail=_esc(result.get("detail", "")),
        )
        for result in results
    )
    return (
        "<table><thead><tr><th>workload</th><th>config</th><th>status</th>"
        "<th>baseline cycles</th><th>run cycles</th><th>Δ</th>"
        "<th>detail</th></tr></thead><tbody>" + body + "</tbody></table>"
    )


_CSS = """
body { font: 14px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       color: #222; margin: 2rem auto; max-width: 980px; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 4px 8px; border-bottom: 1px solid #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr.bad td { background: #fdecea; } tr.good td { background: #f2f9f2; }
.dot { display: inline-block; width: 10px; height: 10px;
       border-radius: 2px; margin-right: 5px; }
.meta { color: #555; font-size: 12px; }
.legend span { margin-right: 14px; font-size: 12px; }
.note { color: #777; font-size: 12px; }
code { background: #f5f5f5; padding: 1px 4px; border-radius: 3px; }
"""


def render_html(
    record: RunRecord,
    check_results: Optional[List[Dict]] = None,
    top: int = 15,
) -> str:
    """Self-contained HTML report for one registered run."""
    try:
        explained: Optional[Dict[str, object]] = explain_record(record)
    except ValueError:
        explained = None
    rows = _layer_rows(record, explained)
    totals = record.payload.get("totals", {})
    metadata = record.payload.get("metadata", {})
    utilization = record.payload.get("utilization", {})
    legend = (
        "<div class='legend'>" + "".join(
            f"<span><span class='dot' style='background:{color}'></span>"
            f"{bound}</span>"
            for bound, color in _ROOFLINE_COLORS.items()
        ) + "</div>"
        if explained is not None else
        "<p class='note'>no stall ledgers: record the run with --stalls "
        "to colour each layer by its bound</p>"
    )
    meta_rows = "".join(
        f"<tr><th>{_esc(key)}</th><td>{_esc(value)}</td></tr>"
        for key, value in (
            ("run id", record.run_id),
            ("workload", record.workload),
            ("recorded", record.created_utc),
            ("source", record.source),
            ("config", f"{record.config_name} "
                       f"(hash {record.config_hash or '-'})"),
            ("total cycles", f"{record.total_cycles:,}"),
            ("total MACs", f"{record.total_macs:,}"),
            ("energy", f"{record.energy_total_uj:.4f} uJ"),
            ("runtime", f"{totals.get('runtime_us', 0):.3f} us"),
            ("wall-clock", (f"{record.wall_clock_s:.3f} s"
                            if record.wall_clock_s is not None else "-")),
            ("cached", str(record.cached).lower()),
            ("tool", f"{metadata.get('tool', '?')} "
                     f"{metadata.get('version', '')}"),
        )
    )
    util_rows = "".join(
        f"<tr><th>{_esc(key)}</th><td class='num'>{value:.2%}</td></tr>"
        for key, value in utilization.items()
    )
    sections = [
        f"<h1>STONNE run report — {_esc(record.workload)}</h1>",
        f"<table class='meta'>{meta_rows}</table>",
        "<h2>Timeline</h2>",
        legend,
        _timeline_svg(record, rows),
        f"<h2>Where the cycles went (top {top})</h2>",
        _ranking_table(rows, top),
        "<h2>Run-level utilization</h2>",
        f"<table>{util_rows or '<tr><td>(none)</td></tr>'}</table>",
    ]
    sections += _stall_sections(explained)
    sections += _fabric_sections(record)
    if check_results is not None:
        sections += ["<h2>Regression check</h2>",
                     _regression_table(check_results)]
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>STONNE run {_esc(record.run_id)}</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(sections) + "</body></html>"
    )


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _open_registry(args: argparse.Namespace) -> RunRegistry:
    return RunRegistry(args.registry_dir)


def _emit(text: str, out: Optional[str], what: str) -> None:
    """Print ``text``, or write it to ``out`` and say so."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"{what} written to {out}")
    else:
        print(text, end="")


def _threshold_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cycles-pct", type=float, default=None,
                        help="max |cycle delta| in percent (default 0)")
    parser.add_argument("--energy-pct", type=float, default=None,
                        help="max |energy delta| in percent (default 0.5)")


def _thresholds_from(args: argparse.Namespace,
                     base: Thresholds = Thresholds()) -> Thresholds:
    """``base`` with every threshold flag given on the command line."""
    return replace(base, **{
        axis: getattr(args, axis)
        for axis in ("cycles_pct", "energy_pct", "wall_pct")
        if getattr(args, axis, None) is not None
    })


def _cmd_list(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        records = registry.list_runs(workload=args.workload, limit=args.limit)
    if args.json:
        rows = [{field.name: getattr(record, field.name)
                 for field in fields(record) if field.name != "payload"}
                for record in records]
        print(json.dumps(rows, indent=2))
        return 0
    if not records:
        print("(registry is empty)")
        return 0
    print(f"{'run id':<13s} {'recorded (UTC)':<20s} {'workload':<28s} "
          f"{'config':<10s} {'cycles':>12s} {'energy uJ':>12s} "
          f"{'wall s':>8s} {'cached':>6s}")
    for record in records:
        wall = (f"{record.wall_clock_s:.2f}"
                if record.wall_clock_s is not None else "-")
        print(f"{record.run_id:<13s} {record.created_utc[:19]:<20s} "
              f"{record.workload[:28]:<28s} "
              f"{(record.config_hash or record.config_name)[:8]:<10s} "
              f"{record.total_cycles:>12,d} {record.energy_total_uj:>12.4f} "
              f"{wall:>8s} {str(record.cached).lower():>6s}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        record = registry.resolve(args.run)
    print(json.dumps(record.as_dict(), indent=2))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        old = registry.resolve(args.old)
        new = registry.resolve(args.new)
    result = diff_records(old, new, _thresholds_from(args))
    if not result["workload_match"]:
        print(f"note: comparing different workloads "
              f"({old.workload!r} vs {new.workload!r})", file=sys.stderr)
    if not result["config_match"]:
        print(f"note: comparing different configurations "
              f"({old.config_hash or '-'} vs {new.config_hash or '-'})",
              file=sys.stderr)
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        for axis, delta in result["deltas"].items():
            print(f"{axis:16s} {delta['old']} -> {delta['new']} "
                  f"({delta['pct']:+.3f}%)")
        for layer in result["layer_deltas"][:20]:
            if layer.get("status") == "changed":
                print(f"  layer {layer['layer']}: {layer['old_cycles']} -> "
                      f"{layer['new_cycles']} cycles ({layer['pct']:+.3f}%)")
            else:
                print(f"  layer {layer['layer']}: {layer['status']}")
        if len(result["layer_deltas"]) > 20:
            print(f"  ... {len(result['layer_deltas']) - 20} more "
                  f"layer deltas (use --json for all)")
    if result["violations"]:
        for violation in result["violations"]:
            print(f"REGRESSION: {violation}", file=sys.stderr)
        return 1
    print("ok: runs agree within thresholds")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    baseline = load_baseline(Path(args.baseline))
    gates = _thresholds_from(args, baseline_thresholds(baseline))
    with _open_registry(args) as registry:
        results, ok = check_baseline(registry, baseline, gates)
    for result in results:
        status = result["status"]
        line = f"[{status:>9s}] {result['workload']} ({result['config_hash'][:8]})"
        if "run_cycles" in result:
            line += (f": {result['baseline_cycles']} -> "
                     f"{result['run_cycles']} cycles "
                     f"({result['cycles_pct']:+.3f}%)")
        if result.get("detail"):
            line += f" — {result['detail']}"
        print(line)
    if not ok:
        print("regression sentinel: FAIL", file=sys.stderr)
        return 1
    print(f"regression sentinel: {len(results)} workload(s) ok")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        record = registry.resolve(args.run)
        check_results = None
        if args.baseline:
            baseline = load_baseline(Path(args.baseline))
            check_results, _ = check_baseline(registry, baseline)
    _emit(render_html(record, check_results, top=args.top), args.out,
          "report")
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        if args.dry_run:
            doomed = registry.prune_candidates(
                keep=args.keep, workload=args.workload
            )
            total = registry.count()
            for run_id in doomed:
                print(f"would prune {run_id}")
            print(f"dry run: would prune {len(doomed)} run(s); "
                  f"{total - len(doomed)} would remain")
            return 0
        deleted = registry.prune(keep=args.keep, workload=args.workload)
        remaining = registry.count()
    print(f"pruned {deleted} run(s); {remaining} remain")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        if args.diff:
            result = explain_diff(registry.resolve(args.diff[0]),
                                  registry.resolve(args.diff[1]))
            text = (json.dumps(result, indent=2) + "\n"
                    if args.format == "json"
                    else _format_explain_diff_text(result))
        else:
            result = explain_record(registry.resolve(args.run))
            text = (json.dumps(result, indent=2) + "\n"
                    if args.format == "json"
                    else _format_explain_text(result, top=args.top))
    _emit(text, args.out, "explanation")
    if not result["conservation"]["ok"]:
        for violation in result["conservation"]["violations"]:
            print(f"CONSERVATION VIOLATED: {violation}", file=sys.stderr)
        return 2
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        result = fabric_record(registry.resolve(args.run))
    text = (json.dumps(result, indent=2) + "\n"
            if args.format == "json"
            else _format_fabric_text(result, top=args.top))
    _emit(text, args.out, "fabric view")
    if not result["consistency"]["ok"]:
        for violation in result["consistency"]["violations"]:
            print(f"CONSISTENCY VIOLATED: {violation}", file=sys.stderr)
        return 2
    return 0


def _cmd_export_baseline(args: argparse.Namespace) -> int:
    with _open_registry(args) as registry:
        records = [registry.resolve(ref) for ref in args.runs]
    payload = export_baseline(records, _thresholds_from(args))
    _emit(json.dumps(payload, indent=2) + "\n", args.out,
          f"baseline with {len(records)} entr(ies)")
    return 0


def _cmd_hotspots(args: argparse.Namespace) -> int:
    """Profile a short in-process model run; report host-time hotspots.

    It answers "which simulator component costs the most *host
    seconds*", the wall-clock dual of ``explain``.
    """
    from repro.config import preset
    from repro.engine.accelerator import Accelerator
    from repro.frontend.models import build_model, model_input
    from repro.frontend.simulated import detach_context, simulate
    from repro.observability.telemetry import profile_call

    config = preset(args.arch, args.num_ms)

    model = build_model(args.model, seed=0)
    x = model_input(args.model, batch=1, seed=1)

    def _run() -> None:
        for _ in range(max(1, args.repeat)):
            acc = Accelerator(config)
            simulate(model, acc)
            model(x)
            detach_context(model)

    _, report = profile_call(_run, interval_s=args.interval_ms / 1000.0)

    if args.format == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    elif args.format == "html":
        text = report.to_html()
    else:
        text = report.to_text() + "\n"
    _emit(text, args.out, "hotspot report")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability.insight",
        description="cross-run analysis over the STONNE run registry",
    )
    parser.add_argument("--registry-dir", metavar="DIR", default=None,
                        help="registry location (default ~/.stonne_runs, "
                             "or $STONNE_RUNS_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("list", help="list registered runs, newest first")
    cmd.add_argument("--workload", help="filter by workload name")
    cmd.add_argument("--limit", type=int, default=30)
    cmd.add_argument("--json", action="store_true",
                     help="machine-readable headline rows")
    cmd.set_defaults(func=_cmd_list)

    cmd = sub.add_parser("show", help="print one run's full record as JSON")
    cmd.add_argument("run", help="run id, unique prefix, or 'latest'")
    cmd.set_defaults(func=_cmd_show)

    cmd = sub.add_parser(
        "diff", help="compare two runs; exit 1 beyond thresholds"
    )
    cmd.add_argument("old")
    cmd.add_argument("new")
    cmd.add_argument("--json", action="store_true")
    _threshold_args(cmd)
    cmd.add_argument("--wall-pct", type=float, default=None,
                     help="max wall-clock increase in percent "
                          "(default: not gated)")
    cmd.set_defaults(func=_cmd_diff)

    cmd = sub.add_parser(
        "check",
        help="gate latest runs against a committed baseline; exit 1 on "
             "regression (CI)",
    )
    cmd.add_argument("--baseline", required=True,
                     help="baseline JSON (see 'export-baseline')")
    _threshold_args(cmd)
    cmd.set_defaults(func=_cmd_check)

    cmd = sub.add_parser(
        "report", help="write a self-contained HTML report for one run"
    )
    cmd.add_argument("run", help="run id, unique prefix, or 'latest'")
    cmd.add_argument("-o", "--out", default="stonne-report.html")
    cmd.add_argument("--baseline",
                     help="include a regression table against this baseline")
    cmd.add_argument("--top", type=int, default=15)
    cmd.set_defaults(func=_cmd_report)

    cmd = sub.add_parser(
        "explain",
        help="attribute every simulated cycle to a stall-taxonomy bucket "
             "(requires a run recorded with --stalls)",
    )
    cmd.add_argument("run", nargs="?", default="latest",
                     help="run id, unique prefix, or 'latest' (default)")
    cmd.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                     help="attribute the cycle delta between two runs "
                          "to stall buckets instead")
    cmd.add_argument("--format", choices=("text", "json"), default="text")
    cmd.add_argument("--top", type=int, default=15,
                     help="layers shown in the text table")
    cmd.add_argument("-o", "--out", help="output path (default: stdout)")
    cmd.set_defaults(func=_cmd_explain)

    cmd = sub.add_parser(
        "fabric",
        help="spatially-resolved DN/MN/RN utilization, hottest links and "
             "FIFO occupancy (requires a run recorded with --fabric)",
    )
    cmd.add_argument("run", nargs="?", default="latest",
                     help="run id, unique prefix, or 'latest' (default)")
    cmd.add_argument("--format", choices=("text", "json"), default="text")
    cmd.add_argument("--top", type=int, default=10,
                     help="links and layers shown in the text tables")
    cmd.add_argument("-o", "--out", help="output path (default: stdout)")
    cmd.set_defaults(func=_cmd_fabric)

    cmd = sub.add_parser(
        "prune", help="keep only the newest N runs per (workload, config)"
    )
    cmd.add_argument("--keep", type=int, default=20)
    cmd.add_argument("--workload")
    cmd.add_argument("--dry-run", action="store_true",
                     help="list the runs prune would delete, delete nothing")
    cmd.set_defaults(func=_cmd_prune)

    cmd = sub.add_parser(
        "hotspots",
        help="sample a short model run; attribute host wall-clock to "
             "simulator components",
    )
    cmd.add_argument("--model", default="squeezenet",
                     help="Table I model to profile (default squeezenet)")
    cmd.add_argument("--arch", choices=("tpu", "maeri", "sigma"),
                     default="tpu")
    cmd.add_argument("--num-ms", type=int, default=16,
                     help="fabric size (default 16: long enough per layer "
                          "for dense sampling)")
    cmd.add_argument("--interval-ms", type=float, default=1.0,
                     help="sampling interval in milliseconds")
    cmd.add_argument("--repeat", type=int, default=5,
                     help="profile N back-to-back runs for more samples")
    cmd.add_argument("--format", choices=("text", "json", "html"),
                     default="text")
    cmd.add_argument("-o", "--out", help="output path (default: stdout)")
    cmd.set_defaults(func=_cmd_hotspots)

    cmd = sub.add_parser(
        "export-baseline",
        help="pin runs into a baseline JSON for 'check'",
    )
    cmd.add_argument("runs", nargs="+",
                     help="run ids / prefixes / 'latest:<workload>'")
    cmd.add_argument("--out", help="output path (default: stdout)")
    _threshold_args(cmd)
    cmd.set_defaults(func=_cmd_export_baseline)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
