"""Shared interprocedural engine for the flow-sensitive lint passes.

This generalizes the call-graph machinery that ``parsafe.py`` grew for
worker-safety into a reusable :class:`CallGraph`: every function/method
in the project becomes a :class:`FunctionNode` carrying its resolved
call edges, its unresolved method-call names, and the raw
:class:`CallSite` records the effect analyses consume. On top of the
graph the module offers

- forward/backward reachability with one witness chain per reached
  function (the parsafe idiom, now shared by PAR-SAFE and LEDGER), and
- :func:`mutated_params` — a fixpoint over per-function effect
  summaries answering "which of its parameters may this function
  mutate?", used by OBS-NEUTRAL to prove observability code never
  writes engine state.

Resolution is deliberately over-approximate: an attribute call whose
receiver type is unknown fans out to *every* project method of that
name. That bias is the right one for safety passes — a missed edge
hides a violation, a spurious edge at worst costs an annotated
suppression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Project,
    SourceFile,
    import_aliases,
    resolve_call_name,
)

#: method calls that mutate a built-in container in place
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "appendleft", "sort",
})


def root_name(node: ast.expr) -> Optional[str]:
    """Root ``Name`` of an attribute/subscript chain (``a.b[0].c`` → a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str                      # the called name as written (tail attr)
    lineno: int
    qualname: Optional[str] = None  # resolved module:func / module:C.m
    dotted: Optional[str] = None    # import-resolved dotted name, if any
    receiver: Optional[str] = None  # root name of the receiver chain
    args: List[Optional[str]] = field(default_factory=list)


@dataclass
class FunctionNode:
    """One function/method and everything the analyses need from it."""

    qualname: str              # module:func or module:Class.method
    module: str
    file: SourceFile
    node: ast.AST
    class_name: Optional[str] = None
    params: List[str] = field(default_factory=list)
    calls: Set[str] = field(default_factory=set)          # resolved quals
    method_calls: Set[str] = field(default_factory=set)   # unresolved attrs
    call_sites: List[CallSite] = field(default_factory=list)
    instantiations: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def short(self) -> str:
        return self.qualname.split(":", 1)[1]


class CallGraph:
    """Project-wide function index plus resolved call edges."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[str, FunctionNode] = {}
        self.by_method_name: Dict[str, List[str]] = {}
        self.classes: Dict[str, Dict[str, str]] = {}  # class → method → qual
        self.class_modules: Dict[str, str] = {}
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
                        params=_param_names(node),
                    )
                elif isinstance(node, ast.ClassDef):
                    methods: Dict[str, str] = {}
                    self.class_modules[node.name] = module
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
                                params=_param_names(item),
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
            site = CallSite(
                name=(
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name)
                    else ast.unparse(func)
                ),
                lineno=node.lineno,
                dotted=dotted,
                receiver=(
                    root_name(func.value)
                    if isinstance(func, ast.Attribute) else None
                ),
                args=[root_name(arg) for arg in node.args],
            )
            info.call_sites.append(site)

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
                        site.qualname = init
                    continue
                # same-module function, or an imported project function
                qual = f"{info.module}:{func.id}"
                if qual in self.functions:
                    info.calls.add(qual)
                    site.qualname = qual
                else:
                    imported = aliases.get(func.id)
                    if imported and "." in imported:
                        mod, _, name = imported.rpartition(".")
                        if mod in self.project_modules:
                            target = f"{mod}:{name}"
                            if target in self.functions:
                                info.calls.add(target)
                                site.qualname = target
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
                            site.qualname = target
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
                        site.qualname = target
                    resolved = True
                elif dotted is not None:
                    mod, _, name = dotted.rpartition(".")
                    if mod in self.project_modules:
                        target = f"{mod}:{name}"
                        if target in self.functions:
                            info.calls.add(target)
                            site.qualname = target
                        resolved = True
            if isinstance(receiver, ast.Name) and receiver.id == "self" \
                    and info.class_name is not None:
                target = self.resolve_class_method(info.class_name, func.attr)
                if target:
                    info.calls.add(target)
                    site.qualname = target
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

    def callers(self, fan_out: bool = True) -> Dict[str, Set[str]]:
        """Inverted edge map: callee qualname → set of caller qualnames."""
        inverse: Dict[str, Set[str]] = {}
        for qual in self.functions:
            for target in self.callees(qual, fan_out=fan_out):
                inverse.setdefault(target, set()).add(qual)
        return inverse

    def caller_chain(
        self,
        qual: str,
        inverse: Optional[Dict[str, Set[str]]] = None,
        limit: int = 6,
    ) -> List[str]:
        """One outermost-caller witness chain ending at ``qual``."""
        if inverse is None:
            inverse = self.callers()
        chain = [qual]
        seen = {qual}
        while len(chain) < limit:
            callers = sorted(inverse.get(chain[0], set()) - seen)
            if not callers:
                break
            chain.insert(0, callers[0])
            seen.add(callers[0])
        return chain


def format_chain(graph: CallGraph, chain: Sequence[str]) -> str:
    """Human witness: ``f -> g -> h`` using short (module-free) names."""
    return " -> ".join(
        graph.functions[q].short if q in graph.functions else q
        for q in chain
    )


# ----------------------------------------------------------------------
# effect summaries: which parameters may a function mutate?
# ----------------------------------------------------------------------
def mutated_params(
    graph: CallGraph,
    mutators: frozenset = MUTATOR_METHODS,
) -> Dict[str, Set[int]]:
    """Fixpoint map qualname → indices of parameters it may mutate.

    A parameter is "mutated" when the function (or anything it calls
    with that parameter as an argument) stores to an attribute or
    subscript reachable from it, deletes part of it, or invokes an
    in-place container mutator on it. Aliases through plain assignment,
    attribute/subscript access, iteration, and tuple unpacking are
    followed; call *results* are deliberately not tainted — a value
    returned by a callee is a fresh object as far as this analysis can
    tell, and tainting it would drown the signal.
    """
    local: Dict[str, Set[int]] = {}
    for qual, info in graph.functions.items():
        local[qual] = _local_mutations(info, mutators)

    summary = {qual: set(muts) for qual, muts in local.items()}
    changed = True
    while changed:
        changed = False
        for qual, info in graph.functions.items():
            taint = _taint_map(info)
            for site in info.call_sites:
                if site.qualname is None:
                    continue
                callee = summary.get(site.qualname, set())
                if not callee:
                    continue
                callee_info = graph.functions[site.qualname]
                offset = 1 if callee_info.class_name is not None else 0
                # receiver of a mutating method call is its param 0
                if offset and 0 in callee and site.receiver is not None:
                    for index in taint.get(site.receiver, ()):
                        if index not in summary[qual]:
                            summary[qual].add(index)
                            changed = True
                for position, arg_root in enumerate(site.args):
                    if arg_root is None:
                        continue
                    if position + offset not in callee:
                        continue
                    for index in taint.get(arg_root, ()):
                        if index not in summary[qual]:
                            summary[qual].add(index)
                            changed = True
    return summary


def _local_mutations(
    info: FunctionNode, mutators: frozenset
) -> Set[int]:
    taint = _taint_map(info)
    mutated: Set[int] = set()

    def mark(expr: ast.expr) -> None:
        # a bare-name rebind is not a mutation; stores *into* the value
        # (attribute/subscript) are
        if not isinstance(expr, (ast.Attribute, ast.Subscript)):
            return
        root = root_name(expr)
        if root is not None:
            mutated.update(taint.get(root, ()))

    for node in ast.walk(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                mark(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            mark(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                mark(target)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in mutators:
                root = root_name(func.value)
                if root is not None:
                    mutated.update(taint.get(root, ()))
    return mutated


def _taint_map(info: FunctionNode) -> Dict[str, Set[int]]:
    """Local name → parameter indices it may alias."""
    taint: Dict[str, Set[int]] = {
        name: {index} for index, name in enumerate(info.params)
    }

    def roots_of(expr: ast.expr) -> Set[int]:
        root = root_name(expr)
        if root is None:
            return set()
        return set(taint.get(root, ()))

    def bind(target: ast.expr, sources: Set[int]) -> None:
        if isinstance(target, ast.Name):
            if sources:
                taint.setdefault(target.id, set()).update(sources)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind(element, sources)

    # two sweeps so aliases-of-aliases settle regardless of source order
    for _ in range(2):
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign):
                sources = roots_of(node.value)
                for target in node.targets:
                    bind(target, sources)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind(node.target, roots_of(node.value))
            elif isinstance(node, ast.For):
                bind(node.target, roots_of(node.iter))
            elif isinstance(node, ast.withitem) and node.optional_vars:
                bind(node.optional_vars, roots_of(node.context_expr))
    return taint


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _param_names(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


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
