"""The call graph behind PAR-SAFE.

Every function/method in the project becomes a :class:`FunctionNode`
carrying its resolved call edges, its unresolved method-call names and
the classes it instantiates; :meth:`CallGraph.reachable` walks the graph
from a set of entry points and keeps one witness chain per function
reached.

Resolution is deliberately over-approximate: an attribute call whose
receiver type is unknown fans out to *every* project method of that
name. That bias is the right one for a safety pass — a missed edge
hides a violation, a spurious edge at worst costs an annotated
suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import (
    Project,
    SourceFile,
    import_aliases,
    resolve_call_name,
)


@dataclass
class FunctionNode:
    """One function/method and what PAR-SAFE needs from it."""

    qualname: str              # module:func or module:Class.method
    module: str
    file: SourceFile
    node: ast.AST
    class_name: Optional[str] = None
    calls: Set[str] = field(default_factory=set)          # resolved quals
    method_calls: Set[str] = field(default_factory=set)   # unresolved attrs
    instantiations: List[Tuple[str, int]] = field(default_factory=list)


class CallGraph:
    """Project-wide function index plus resolved call edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionNode] = {}
        self.by_method_name: Dict[str, List[str]] = {}
        self.classes: Dict[str, Dict[str, str]] = {}  # class → method → qual
        self.class_bases: Dict[str, List[str]] = {}
        self.module_aliases: Dict[str, Dict[str, str]] = {}
        self.module_level_names: Dict[str, Set[str]] = {}
        self.project_modules: Set[str] = {f.module for f in project.files}
        self._index(project)
        for info in self.functions.values():
            self._extract_calls(info)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _index(self, project: Project) -> None:
        for file in project.files:
            if file.tree is None:
                continue
            module = file.module
            self.module_aliases[module] = import_aliases(file.tree)
            self.module_level_names[module] = _module_level_names(file.tree)
            for node in file.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module}:{node.name}"
                    self.functions[qual] = FunctionNode(
                        qualname=qual, module=module, file=file, node=node,
                    )
                elif isinstance(node, ast.ClassDef):
                    methods: Dict[str, str] = {}
                    self.class_bases[node.name] = [
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in node.bases
                        if isinstance(base, (ast.Name, ast.Attribute))
                    ]
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            qual = f"{module}:{node.name}.{item.name}"
                            self.functions[qual] = FunctionNode(
                                qualname=qual, module=module, file=file,
                                node=item, class_name=node.name,
                            )
                            methods[item.name] = qual
                            self.by_method_name.setdefault(
                                item.name, []
                            ).append(qual)
                    self.classes[node.name] = methods

    def resolve_class_method(
        self, class_name: str, method: str
    ) -> Optional[str]:
        """Look a method up on the class, then up its known base chain."""
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            methods = self.classes.get(current)
            if methods and method in methods:
                return methods[method]
            stack.extend(self.class_bases.get(current, []))
        return None

    def _extract_calls(self, info: FunctionNode) -> None:
        aliases = self.module_aliases.get(info.module, {})
        known_classes = set(self.classes)
        local_types = _local_types(info.node, known_classes)

        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = resolve_call_name(func, aliases)

            if isinstance(func, ast.Name):
                # class instantiation → the __init__ edge
                target_class = None
                if func.id in known_classes:
                    target_class = func.id
                else:
                    imported = aliases.get(func.id, "")
                    tail = imported.rsplit(".", 1)[-1] if imported else ""
                    if tail in known_classes:
                        target_class = tail
                if target_class is not None:
                    info.instantiations.append((target_class, node.lineno))
                    init = self.resolve_class_method(target_class, "__init__")
                    if init:
                        info.calls.add(init)
                    continue
                # same-module function, or an imported project function
                qual = f"{info.module}:{func.id}"
                if qual in self.functions:
                    info.calls.add(qual)
                else:
                    imported = aliases.get(func.id)
                    if imported and "." in imported:
                        mod, _, name = imported.rpartition(".")
                        if mod in self.project_modules:
                            target = f"{mod}:{name}"
                            if target in self.functions:
                                info.calls.add(target)
                continue
            if not isinstance(func, ast.Attribute):
                continue

            receiver = func.value
            resolved = False
            if (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                # super().method() dispatches up the known base chain —
                # never fan out to every same-named method in the project
                if info.class_name is not None:
                    for base in self.class_bases.get(info.class_name, []):
                        target = self.resolve_class_method(base, func.attr)
                        if target:
                            info.calls.add(target)
                            break
                resolved = True
            if isinstance(receiver, ast.Name):
                # precise: variable of known class, or known class itself
                class_name = local_types.get(receiver.id)
                if class_name is None:
                    candidate = receiver.id
                    if candidate not in known_classes:
                        imported = aliases.get(candidate, "")
                        candidate = (
                            imported.rsplit(".", 1)[-1] if imported else ""
                        )
                    if candidate in known_classes:
                        class_name = candidate
                if class_name is not None:
                    target = self.resolve_class_method(class_name, func.attr)
                    if target:
                        info.calls.add(target)
                    resolved = True
                elif dotted is not None:
                    mod, _, name = dotted.rpartition(".")
                    if mod in self.project_modules:
                        target = f"{mod}:{name}"
                        if target in self.functions:
                            info.calls.add(target)
                        resolved = True
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and info.class_name is not None:
                target = self.resolve_class_method(info.class_name, func.attr)
                if target:
                    info.calls.add(target)
                resolved = True
            if not resolved:
                info.method_calls.add(func.attr)

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def callees(self, qual: str, fan_out: bool = True) -> Set[str]:
        """Resolved targets, plus the same-name fan-out when requested."""
        info = self.functions.get(qual)
        if info is None:
            return set()
        targets = set(info.calls)
        if fan_out:
            for method in info.method_calls:
                targets.update(self.by_method_name.get(method, []))
        return {t for t in targets if t in self.functions}

    def reachable(
        self, entries: Iterable[str], fan_out: bool = True
    ) -> Dict[str, List[str]]:
        """BFS closure of ``entries`` with one witness chain per function."""
        reached: Dict[str, List[str]] = {}
        queue: List[str] = []
        for entry in entries:
            if entry in self.functions and entry not in reached:
                reached[entry] = [entry]
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for target in sorted(self.callees(current, fan_out=fan_out)):
                if target in reached:
                    continue
                reached[target] = reached[current] + [target]
                queue.append(target)
        return reached


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _module_level_names(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _local_types(node: ast.AST, known_classes: Set[str]) -> Dict[str, str]:
    """variable name → class name, for ``x = ClassName(...)`` assignments."""
    types: Dict[str, str] = {}
    for statement in ast.walk(node):
        if not isinstance(statement, ast.Assign):
            continue
        value = statement.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in known_classes
        ):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = value.func.id
    return types
