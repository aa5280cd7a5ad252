"""PAR: parallel-worker safety.

The differential guarantee (a ``--jobs N`` run is byte-identical to a
serial run) requires that the code a pool worker executes is a pure
function of its arguments. This pass walks the call graph of
:class:`repro.analysis.flow.CallGraph` from the worker entry points in
``repro/parallel/runner.py`` and flags, anywhere in the reachable set:

- writes to module-level state (``global`` rebinding, mutation of a
  module-level dict/list/set) — such state diverges between the parent
  and each worker process, so code observing it behaves differently per
  execution mode;
- opening the run registry / SQLite — per-layer fragments are not runs,
  and concurrent writers to one SQLite file are a corruption hazard;
  only the parent registers the merged report.

Resolution is deliberately over-approximate: an attribute call whose
receiver type is unknown matches *every* project method of that name.
False positives are expected to be rare (module-level writes are rare)
and are silenced with an annotated suppression at the violating line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    literal_assignment,
    register_pass,
    resolve_call_name,
)
from repro.analysis.flow import CallGraph, FunctionNode

#: module whose top-level functions are the pool-worker entry points
RUNNER_MODULE = "repro.parallel.runner"

#: fallback when the runner does not declare WORKER_ENTRY_POINTS itself
DEFAULT_ENTRY_POINTS = ("_simulate_workload", "_simulate_workload_in_worker")

#: method calls that mutate a built-in container in place
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "sort",
})

RULES = (
    Rule(
        id="PAR-GLOBAL",
        summary="worker-reachable write to module-level state",
        rationale=(
            "module-level state is per-process: a worker's write is "
            "invisible to the parent and to other workers, so any code "
            "reading it stops being execution-mode independent and the "
            "serial == parallel guarantee dies"
        ),
    ),
    Rule(
        id="PAR-REGISTRY",
        summary="worker-reachable registry / SQLite open",
        rationale=(
            "only the parent registers the one merged report; workers "
            "opening the registry would record per-layer fragments as "
            "runs and race on the SQLite file"
        ),
    ),
)

#: (rule id, line, what) — computed per function body
Violation = Tuple[str, int, str]


def _violations(
    info: FunctionNode,
    aliases: Dict[str, str],
    module_names: Set[str],
) -> List[Violation]:
    found: List[Violation] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Global):
            for name in node.names:
                found.append((
                    "PAR-GLOBAL", node.lineno,
                    f"'global {name}' rebinds module-level state",
                ))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_names
                ):
                    found.append((
                        "PAR-GLOBAL", node.lineno,
                        f"writes into module-level container "
                        f"{target.value.id!r}",
                    ))

        if not isinstance(node, ast.Call):
            continue
        func = node.func

        # in-place mutation of a module-level container
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in module_names
        ):
            found.append((
                "PAR-GLOBAL", node.lineno,
                f"mutates module-level container {func.value.id!r} via "
                f".{func.attr}()",
            ))

        # registry / sqlite opens
        if resolve_call_name(func, aliases) == "sqlite3.connect":
            found.append((
                "PAR-REGISTRY", node.lineno,
                "opens SQLite directly",
            ))
    for class_name, lineno in info.instantiations:
        if class_name == "RunRegistry":
            found.append((
                "PAR-REGISTRY", lineno,
                "instantiates the run registry",
            ))
    return found


def _entry_points(project: Project) -> List[str]:
    runner = project.module(RUNNER_MODULE)
    if runner is None or runner.tree is None:
        return []
    declared = literal_assignment(runner.tree, "WORKER_ENTRY_POINTS")
    names = (
        [str(n) for n in declared]
        if isinstance(declared, (list, tuple))
        else list(DEFAULT_ENTRY_POINTS)
    )
    return [f"{RUNNER_MODULE}:{name}" for name in names]


@register_pass(
    "PAR-SAFE",
    "nothing reachable from the pool-worker entry points writes "
    "module-level state or opens the run registry",
    RULES,
)
def run(project: Project) -> List[Finding]:
    entries = _entry_points(project)
    if not entries:
        return []
    graph = CallGraph(project)
    reached = graph.reachable(entries)

    findings: List[Finding] = []
    for qual, chain in reached.items():
        info = graph.functions[qual]
        violations = _violations(
            info,
            graph.module_aliases.get(info.module, {}),
            graph.module_level_names.get(info.module, set()),
        )
        for rule_id, line, what in violations:
            via = " -> ".join(q.split(":", 1)[1] for q in chain)
            findings.append(Finding(
                rule=rule_id, path=info.file.relpath, line=line,
                message=f"{what} (reachable from worker entry via {via})",
            ))
    return findings
