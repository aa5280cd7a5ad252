"""LEDGER: every cycle-bearing counter increment is charge-paired.

The stall ledger's conservation invariant (bucket sums == layer cycles,
PR 7) only survives new timing code if every site that advances a
*cycle-bearing* counter is attributable: the increment must happen
inside — or on a call path through — one of the charge-site families
(``_charge_stalls`` / ``_charge_fabric`` / ``record_*`` / ``charge``)
that feed the ledger. A bare ``counters.add("dn_busy_cycles", n)``
dropped into a new scheduling path compiles, runs, and then blows up a
sweep hours later as a ``StallConservationError``; this pass turns that
into a review-time finding with a witness chain.

Both vocabularies are data, not code: ``CYCLE_BEARING_COUNTERS`` and
``CHARGE_FAMILIES`` are committed literals in ``repro.engine.stats``
and are extracted with ``ast.literal_eval`` — the pass needs no import
of the simulator.

A function F containing an increment is *charge-paired* when any of:

1. F's own name is in a charge family (it *is* a charge site);
2. F's body calls a charge-family function (the increment and its
   attribution are siblings);
3. something forward-reachable from F contains a charge-family call
   (F delegates the attribution downward);
4. F is reachable *from* a charged function (the attribution dominates
   F on every modeled call path — e.g. the DN's closed-form
   ``skip_cycles``, reached from ``record_delivery`` and from controller
   helpers that call ``record_*`` themselves).

Anything else is an uncharged timing path and is reported with the
outermost caller chain that reaches it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    literal_assignment,
    register_pass,
)
from repro.analysis.flow import CallGraph, format_chain

#: packages whose timing code the pass audits
SCOPE_PACKAGES = ("repro.engine", "repro.noc", "repro.memory")

#: module committing the two vocabularies as literals
STATS_MODULE = "repro.engine.stats"

RULES = (
    Rule(
        id="LEDGER-UNCHARGED",
        summary="cycle-bearing counter increment with no paired charge",
        rationale=(
            "a timing statement outside the charge-site web adds cycles "
            "the stall ledger never attributes, so conservation (bucket "
            "sums == layer cycles) breaks at finalize — deep inside a "
            "run instead of at review time"
        ),
    ),
    Rule(
        id="LEDGER-MANIFEST",
        summary="charge-site manifest missing or malformed",
        rationale=(
            "the pass proves pairing against the committed "
            "CYCLE_BEARING_COUNTERS / CHARGE_FAMILIES literals; without "
            "them every increment is unauditable"
        ),
    ),
)


def _manifests(
    project: Project,
) -> Tuple[Optional[Set[str]], Optional[Tuple[Set[str], Tuple[str, ...]]], List[Finding]]:
    stats = project.module(STATS_MODULE)
    if stats is None or stats.tree is None:
        return None, None, []
    findings: List[Finding] = []
    bearing = literal_assignment(stats.tree, "CYCLE_BEARING_COUNTERS").value
    families = literal_assignment(stats.tree, "CHARGE_FAMILIES").value
    if not isinstance(bearing, dict) or not bearing:
        findings.append(Finding(
            rule="LEDGER-MANIFEST", path=stats.relpath, line=1,
            message=(
                "repro.engine.stats declares no CYCLE_BEARING_COUNTERS "
                "dict literal"
            ),
        ))
        bearing = None
    if (
        not isinstance(families, dict)
        or not families.get("names") and not families.get("prefixes")
    ):
        findings.append(Finding(
            rule="LEDGER-MANIFEST", path=stats.relpath, line=1,
            message=(
                "repro.engine.stats declares no CHARGE_FAMILIES literal "
                "with 'names' / 'prefixes' entries"
            ),
        ))
        families = None
    names: Optional[Set[str]] = set(bearing) if bearing else None
    family: Optional[Tuple[Set[str], Tuple[str, ...]]] = None
    if families is not None:
        family = (
            {str(n) for n in families.get("names", [])},
            tuple(str(p) for p in families.get("prefixes", [])),
        )
    return names, family, findings


def _is_charge_name(
    name: str, family: Tuple[Set[str], Tuple[str, ...]]
) -> bool:
    exact, prefixes = family
    return name in exact or any(name.startswith(p) for p in prefixes)


def _increment_sites(
    graph: CallGraph, bearing: Set[str]
) -> Dict[str, List[Tuple[str, int]]]:
    """qualname → [(counter name, line)] for every cycle-bearing add."""
    sites: Dict[str, List[Tuple[str, int]]] = {}
    scoped = {
        f.module for f in graph.project.in_packages(*SCOPE_PACKAGES)
    }
    for qual, info in graph.functions.items():
        if info.module not in scoped:
            continue
        hits: List[Tuple[str, int]] = []
        for node in ast.walk(info.node):
            name: Optional[str] = None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value
            elif (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.target.slice, ast.Constant)
                and isinstance(node.target.slice.value, str)
            ):
                name = node.target.slice.value
            if name in bearing:
                hits.append((name, node.lineno))
        if hits:
            sites[qual] = hits
    return sites


@register_pass(
    "LEDGER",
    "every cycle-bearing counter increment in the timing packages is "
    "reachable from / dominated by a charge-site family call",
    RULES,
)
def run(project: Project) -> List[Finding]:
    bearing, family, findings = _manifests(project)
    if bearing is None or family is None:
        return findings

    graph = CallGraph(project)
    sites = _increment_sites(graph, bearing)
    if not sites:
        return findings

    # the base charge web: functions that are / directly call a charge site
    base = {
        qual for qual, info in graph.functions.items()
        if _is_charge_name(info.short.rsplit(".", 1)[-1], family)
        or any(_is_charge_name(s.name, family) for s in info.call_sites)
    }
    # rule 3: anything that can *reach* the web (reverse BFS over calls)
    inverse = graph.callers()
    charged = set(base)
    queue = list(base)
    while queue:
        current = queue.pop(0)
        for caller in inverse.get(current, ()):
            if caller not in charged:
                charged.add(caller)
                queue.append(caller)
    # rule 4: anything the web reaches (attribution dominates the path)
    paired = charged | set(graph.reachable(sorted(charged)))

    for qual in sorted(sites):
        if qual in paired:
            continue
        info = graph.functions[qual]
        chain = graph.caller_chain(qual, inverse)
        witness = (
            format_chain(graph, chain) if len(chain) > 1
            else f"{info.short} (no modeled callers)"
        )
        for counter, line in sites[qual]:
            findings.append(Finding(
                rule="LEDGER-UNCHARGED", path=info.file.relpath, line=line,
                message=(
                    f"increments cycle-bearing counter {counter!r} in "
                    f"{info.short} with no path to any charge-site "
                    f"family call; uncharged timing path: {witness}"
                ),
            ))
    return findings
