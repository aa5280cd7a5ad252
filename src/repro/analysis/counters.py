"""COUNTER: activity counters must be declared before use.

:class:`~repro.noc.base.CounterSet` creates counters lazily, which keeps
components decoupled but means a typo'd increment (``gb_wrties``) or a
read of a never-incremented name silently yields zero — and whatever
reads it (energy pricing, utilization, the fabric consistency check)
then prices or divides by a phantom counter. The declared universe
lives in ``repro.engine.stats.KNOWN_COUNTERS``; this pass checks every
literal counter increment and read against it, and that no declared
counter is dead.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    literal_assignment,
    register_pass,
)

#: module declaring the counter universe
STATS_MODULE = "repro.engine.stats"
REGISTRY_NAME = "KNOWN_COUNTERS"

RULES = (
    Rule(
        id="COUNTER-UNDECLARED",
        summary="increments an activity counter not in KNOWN_COUNTERS",
        rationale=(
            "CounterSet creates counters lazily, so a typo becomes a new "
            "counter the energy model prices at zero; declare the name in "
            "repro.engine.stats.KNOWN_COUNTERS first"
        ),
    ),
    Rule(
        id="COUNTER-READ",
        summary="reads an activity counter not in KNOWN_COUNTERS",
        rationale=(
            "reading an undeclared counter silently returns 0 — energy "
            "pricing, utilization or a fabric consistency check would "
            "then work from a phantom"
        ),
    ),
    Rule(
        id="COUNTER-DEAD",
        summary="declared counter never referenced outside the registry",
        rationale=(
            "a dead registry entry suggests the counter was renamed "
            "without updating KNOWN_COUNTERS — the same hazard from the "
            "other side"
        ),
    ),
    Rule(
        id="COUNTER-MISSING",
        summary="KNOWN_COUNTERS registry not found",
        rationale=(
            "without the declared universe in repro.engine.stats none of "
            "the counter rules can be checked"
        ),
    ),
)


def _is_counter_receiver(receiver: ast.expr) -> bool:
    """Heuristic: the object whose ``.add``/``.get`` names a counter.

    Matches ``counters``, ``self.counters``, ``self.gb.counters`` and the
    merged-set idiom (a local named ``merged``); plain dicts like
    ``config`` or ``params`` do not match.
    """
    text = ast.unparse(receiver)
    tail = text.rsplit(".", 1)[-1]
    return "counter" in tail.lower() or tail == "merged"


@register_pass(
    "COUNTER",
    "every activity counter incremented or read is declared in "
    "repro.engine.stats.KNOWN_COUNTERS",
    RULES,
)
def run(project: Project) -> List[Finding]:
    stats = project.module(STATS_MODULE)
    if stats is None:
        return []  # nothing to check outside the simulator tree
    declared, registry_line, registry_end = literal_assignment(
        stats.tree, REGISTRY_NAME
    )
    if not isinstance(declared, dict):
        return [Finding(
            rule="COUNTER-MISSING", path=stats.relpath,
            line=registry_line or 1,
            message=(
                f"{REGISTRY_NAME} must be a module-level dict literal "
                "mapping counter name -> description"
            ),
        )]

    findings: List[Finding] = []
    referenced: Set[str] = set()

    for file in project.files:
        if file.tree is None:
            continue
        in_registry_module = file.module == STATS_MODULE
        for node in ast.walk(file.tree):
            # class-level `*_counter = "name"` declarations count as use
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and any(
                    isinstance(t, ast.Name) and t.id.endswith("_counter")
                    for t in node.targets
                )
            ):
                name = node.value.value
                referenced.add(name)
                if name not in declared:
                    findings.append(Finding(
                        rule="COUNTER-UNDECLARED", path=file.relpath,
                        line=node.lineno,
                        message=(
                            f"counter name {name!r} bound for later "
                            "increments is not declared in KNOWN_COUNTERS"
                        ),
                    ))
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_counter_receiver(func.value):
                continue
            literal = (
                node.args[0].value
                if node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                else None
            )
            if literal is None:
                continue
            if func.attr == "add":
                referenced.add(literal)
                if literal not in declared:
                    findings.append(Finding(
                        rule="COUNTER-UNDECLARED", path=file.relpath,
                        line=node.lineno,
                        message=(
                            f"increments undeclared counter {literal!r}; "
                            "declare it in KNOWN_COUNTERS"
                        ),
                    ))
            elif func.attr == "get":
                referenced.add(literal)
                if literal not in declared and not in_registry_module:
                    findings.append(Finding(
                        rule="COUNTER-READ", path=file.relpath,
                        line=node.lineno,
                        message=(
                            f"reads undeclared counter {literal!r} "
                            "(would silently be 0)"
                        ),
                    ))

    # a declared counter must appear as a literal somewhere outside the
    # registry assignment itself (increment site, energy table, read, ...)
    mentioned: Set[str] = set(referenced)
    for file in project.files:
        if file.tree is None:
            continue
        for node in ast.walk(file.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in declared
            ):
                if (
                    file.module == STATS_MODULE
                    and registry_line
                    <= getattr(node, "lineno", 0)
                    <= registry_end
                ):
                    continue  # the registry literal itself
                mentioned.add(node.value)
    for name in sorted(set(declared) - mentioned):
        findings.append(Finding(
            rule="COUNTER-DEAD", path=stats.relpath, line=registry_line,
            message=(
                f"counter {name!r} is declared but never incremented or "
                "read anywhere"
            ),
        ))
    return findings
