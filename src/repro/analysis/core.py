"""Framework shared by every lint pass.

The model is deliberately small: a :class:`Project` is a set of parsed
:class:`SourceFile` objects, a pass is a function from a project to a
list of :class:`Finding` records, and the driver applies the inline
suppressions (``# stonne: lint-ok[<RULE-ID>] reason``) before reporting.
Passes register themselves with :func:`register_pass` at import time, so
adding a pass is one module with one decorated function (see
``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: matches one inline suppression comment; group 1 is the rule id (or a
#: rule-family prefix like ``EXC``), group 2 the mandatory reason
SUPPRESS_RE = re.compile(
    r"#\s*stonne:\s*lint-ok\[([A-Za-z0-9-]+)\]\s*(.*)$"
)


@dataclass(frozen=True)
class Rule:
    """One checkable invariant with a stable, documented identifier."""

    id: str
    summary: str
    rationale: str


@dataclass(frozen=True)
class Finding:
    """One violation of one rule at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``lint-ok`` comment."""

    rule: str
    reason: str
    comment_line: int
    target_line: int

    def matches(self, rule_id: str) -> bool:
        """Exact rule id, or a family prefix (``EXC`` covers ``EXC-*``)."""
        return rule_id == self.rule or rule_id.startswith(self.rule + "-")


class SourceFile:
    """One parsed Python file: text, AST and suppression comments."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: Optional[ast.AST] = None
        self.syntax_error: Optional[str] = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            self.syntax_error = str(exc)
        self.suppressions: List[Suppression] = list(self._parse_suppressions())
        self.module = module_name(relpath)

    def _parse_suppressions(self) -> Iterable[Suppression]:
        for number, line in enumerate(self.lines, start=1):
            match = SUPPRESS_RE.search(line)
            if match is None:
                continue
            before = line[: match.start()].strip()
            # a comment-only line suppresses the following line; a
            # trailing comment suppresses its own line
            target = number + 1 if not before else number
            yield Suppression(
                rule=match.group(1),
                reason=match.group(2).strip(),
                comment_line=number,
                target_line=target,
            )

    def suppressions_for(self, line: int) -> List[Suppression]:
        return [s for s in self.suppressions if s.target_line == line]


def module_name(relpath: str) -> str:
    """Dotted module path of a file, anchored at the ``repro`` package.

    Files outside any ``repro`` tree (e.g. loose lint fixtures) fall back
    to their path-derived name so scope checks simply never match.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


class Project:
    """The file set one lint run analyzes."""

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files: List[SourceFile] = sorted(files, key=lambda f: f.relpath)

    @classmethod
    def from_paths(cls, paths: Sequence[Path]) -> "Project":
        """Collect ``*.py`` files from the given files/directories."""
        roots = [Path(p).resolve() for p in paths]
        seen: Dict[Path, SourceFile] = {}
        anchor = roots[0] if roots else Path.cwd()
        if anchor.is_file():
            anchor = anchor.parent
        for root in roots:
            if root.is_file():
                candidates = [root]
                base = root.parent
            else:
                candidates = sorted(root.rglob("*.py"))
                base = root
            for path in candidates:
                if "__pycache__" in path.parts or path in seen:
                    continue
                try:
                    relpath = path.relative_to(base)
                except ValueError:
                    relpath = Path(path.name)
                # anchor relative names at the package dir so findings
                # print as repro/... regardless of the path given
                rel = (Path(base.name) / relpath).as_posix()
                if base.name in ("src",):
                    rel = relpath.as_posix()
                seen[path] = SourceFile(
                    path, rel, path.read_text(encoding="utf-8")
                )
        return cls(anchor, list(seen.values()))

    def in_packages(self, *packages: str) -> List[SourceFile]:
        """Files whose module lives in any of the given dotted packages."""
        result = []
        for file in self.files:
            for package in packages:
                if file.module == package or file.module.startswith(
                    package + "."
                ):
                    result.append(file)
                    break
        return result


# ----------------------------------------------------------------------
# pass registry
# ----------------------------------------------------------------------
PassFn = Callable[[Project], List[Finding]]


@dataclass(frozen=True)
class LintPass:
    """A named pass: the rules it may emit plus its run function."""

    name: str
    description: str
    rules: Tuple[Rule, ...]
    run: PassFn = field(compare=False)


_PASS_REGISTRY: Dict[str, LintPass] = {}


def register_pass(
    name: str, description: str, rules: Sequence[Rule]
) -> Callable[[PassFn], PassFn]:
    """Decorator registering ``fn(project) -> findings`` as a pass."""

    def decorator(fn: PassFn) -> PassFn:
        if name in _PASS_REGISTRY:
            raise ValueError(f"duplicate lint pass {name!r}")
        _PASS_REGISTRY[name] = LintPass(
            name=name, description=description, rules=tuple(rules), run=fn
        )
        return fn

    return decorator


def all_passes() -> Dict[str, LintPass]:
    """Registered passes by name (importing the modules registers them)."""
    import repro.analysis.exceptions  # noqa: F401
    import repro.analysis.floatorder  # noqa: F401

    return dict(_PASS_REGISTRY)


#: rules emitted by the driver itself (suppression hygiene, parse errors)
DRIVER_RULES = (
    Rule(
        id="LINT-REASON",
        summary="suppression comment without a reason",
        rationale=(
            "a silenced finding with no recorded justification is "
            "indistinguishable from a finding someone wanted to hide; the "
            "reason string is the audit trail"
        ),
    ),
    Rule(
        id="LINT-UNKNOWN",
        summary="suppression names a rule id no pass defines",
        rationale=(
            "a typo in the rule id leaves the real finding live while "
            "looking suppressed"
        ),
    ),
    Rule(
        id="LINT-SYNTAX",
        summary="file does not parse",
        rationale="nothing can be checked in a file the AST cannot see",
    ),
    Rule(
        id="LINT-UNUSED",
        summary="suppression comment matches no finding",
        rationale=(
            "a lint-ok comment that silences nothing is a stale audit "
            "trail: the violation it once excused was fixed or moved, "
            "and leaving the comment grants a blanket waiver to "
            "whatever lands on that line next"
        ),
    ),
)


def all_rules() -> Dict[str, Rule]:
    """Every known rule id (pass rules plus the driver's own)."""
    rules: Dict[str, Rule] = {r.id: r for r in DRIVER_RULES}
    for lint_pass in all_passes().values():
        for rule in lint_pass.rules:
            rules[rule.id] = rule
    return rules
