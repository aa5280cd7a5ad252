"""DET: determinism rules.

The differential suite (serial == parallel == cached, byte-identical)
and the content-addressed :class:`~repro.parallel.cache.SimCache` are
only as good as the code's determinism. Three classes of bug break it
silently:

- global-state RNG (``np.random.rand``, ``random.random``): results
  depend on call order, which the parallel runner does not preserve;
- wall-clock reads inside cycle-level code: a cycle count that ever
  consults real time is not a cycle count;
- iteration over ``set`` / ``dict.keys()``: string hashing is
  per-process randomized, so worker processes can observe a different
  order than the parent.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    import_aliases,
    register_pass,
    resolve_call_name,
)

#: packages whose code runs inside the cycle-level timing model
CYCLE_LEVEL_PACKAGES = ("repro.engine", "repro.noc", "repro.memory")

#: packages additionally checked for iteration-order nondeterminism
#: (cache-key construction must be canonical across processes)
ORDER_SENSITIVE_PACKAGES = CYCLE_LEVEL_PACKAGES + ("repro.parallel",)

#: provenance/observability code legitimately reads wall clocks
#: (timestamps on reports, the per-layer host-time window, host-side
#: telemetry instruments and the sampling hotspot profiler) and is
#: whitelisted for DET-CLOCK; the
#: telemetry subpackage is named explicitly so the whitelist survives
#: even if the parent entry is ever narrowed
CLOCK_WHITELISTED_PACKAGES = (
    "repro.observability",
    "repro.observability.telemetry",
)

#: legacy numpy global-state RNG entry points
_NUMPY_LEGACY = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "standard_normal",
    "uniform", "normal", "seed", "binomial", "poisson", "beta", "gamma",
    "exponential",
})

#: stdlib ``random`` module-level (global-state) functions
_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "seed", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "getrandbits",
})

#: wall-clock call targets forbidden in cycle-level code — including
#: the monotonic/perf-counter family the telemetry instruments use:
#: host-time reads of any kind do not belong in the timing model
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: doc-example scan for the same legacy RNG API inside docstrings
_DOC_RNG_RE = re.compile(
    r"(?:np|numpy)\.random\.(?:%s)\s*\(" % "|".join(sorted(_NUMPY_LEGACY))
)

RULES = (
    Rule(
        id="DET-RAND",
        summary="call into a global-state RNG (np.random.* / random.*)",
        rationale=(
            "global-state RNG output depends on call order, which the "
            "parallel runner does not preserve; use "
            "np.random.default_rng(seed) so every draw is owned by an "
            "explicitly seeded generator"
        ),
    ),
    Rule(
        id="DET-CLOCK",
        summary="wall-clock read inside cycle-level code",
        rationale=(
            "time.time()/datetime.now() reachable from engine/, noc/ or "
            "memory/ lets real time leak into simulated cycle counts, "
            "breaking run-to-run and serial-vs-parallel equivalence"
        ),
    ),
    Rule(
        id="DET-ORDER",
        summary="iteration over a set or dict.keys() view",
        rationale=(
            "str hashing is randomized per process, so set order differs "
            "between the parent and pool workers; iterate sorted(...) in "
            "cycle loops and cache-key construction"
        ),
    ),
    Rule(
        id="DET-DOC",
        summary="doc example uses the legacy global-state numpy RNG",
        rationale=(
            "examples are what users copy; a Quickstart built on "
            "np.random.rand teaches the exact pattern DET-RAND forbids"
        ),
    ),
)

_BY_ID = {rule.id: rule for rule in RULES}


def _in_packages(file: SourceFile, packages) -> bool:
    return any(
        file.module == p or file.module.startswith(p + ".")
        for p in packages
    )


def _check_rng_calls(file: SourceFile, aliases: Dict[str, str],
                     findings: List[Finding]) -> None:
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            bad = None
            if node.module in ("numpy.random",):
                bad = [n.name for n in node.names if n.name in _NUMPY_LEGACY]
            elif node.module == "random":
                bad = [n.name for n in node.names if n.name in _STDLIB_RANDOM]
            if bad:
                findings.append(Finding(
                    rule="DET-RAND", path=file.relpath, line=node.lineno,
                    message=(
                        f"imports global-state RNG function(s) "
                        f"{', '.join(sorted(bad))} from {node.module}"
                    ),
                ))
            continue
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call_name(node.func, aliases)
        if name is None:
            continue
        if name.startswith("numpy.random."):
            tail = name[len("numpy.random."):]
            if tail in _NUMPY_LEGACY:
                findings.append(Finding(
                    rule="DET-RAND", path=file.relpath, line=node.lineno,
                    message=(
                        f"{name}() draws from the process-global RNG; use "
                        "np.random.default_rng(seed)"
                    ),
                ))
        elif name.startswith("random."):
            tail = name[len("random."):]
            if tail in _STDLIB_RANDOM:
                findings.append(Finding(
                    rule="DET-RAND", path=file.relpath, line=node.lineno,
                    message=(
                        f"{name}() draws from the process-global RNG; use "
                        "random.Random(seed)"
                    ),
                ))


def _check_wall_clock(file: SourceFile, aliases: Dict[str, str],
                      findings: List[Finding]) -> None:
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call_name(node.func, aliases)
        if name in _WALL_CLOCK:
            findings.append(Finding(
                rule="DET-CLOCK", path=file.relpath, line=node.lineno,
                message=(
                    f"{name}() read inside cycle-level code; simulated "
                    "time must come from the cycle counter only"
                ),
            ))


def _iter_targets(tree: ast.AST):
    """(node, iterated expression) for every for-loop and comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield node, generator.iter


def _check_iteration_order(file: SourceFile,
                           findings: List[Finding]) -> None:
    assert file.tree is not None
    for node, iterated in _iter_targets(file.tree):
        unordered = None
        if isinstance(iterated, ast.Set):
            unordered = "a set literal"
        elif (
            isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Name)
            and iterated.func.id in ("set", "frozenset")
        ):
            unordered = f"{iterated.func.id}(...)"
        elif (
            isinstance(iterated, ast.Call)
            and isinstance(iterated.func, ast.Attribute)
            and iterated.func.attr == "keys"
            and not iterated.args
        ):
            unordered = f"{ast.unparse(iterated)}"
        elif isinstance(iterated, ast.BinOp) and isinstance(
            iterated.op, (ast.BitOr, ast.BitAnd, ast.Sub)
        ):
            # `a.keys() | b.keys()` and friends produce sets
            sides = (iterated.left, iterated.right)
            if any(
                isinstance(s, ast.Call)
                and isinstance(s.func, ast.Attribute)
                and s.func.attr == "keys"
                for s in sides
            ):
                unordered = "a set built from dict key views"
        if unordered is not None:
            findings.append(Finding(
                rule="DET-ORDER", path=file.relpath, line=iterated.lineno,
                message=(
                    f"iterates {unordered}, whose order is not stable "
                    "across processes; wrap in sorted(...)"
                ),
            ))


def _check_doc_examples(file: SourceFile, findings: List[Finding]) -> None:
    for start_line, text in file.docstrings():
        for offset, line in enumerate(text.splitlines()):
            if _DOC_RNG_RE.search(line):
                findings.append(Finding(
                    rule="DET-DOC", path=file.relpath,
                    line=start_line + offset,
                    message=(
                        "doc example calls the legacy np.random API; show "
                        "np.random.default_rng(seed) instead"
                    ),
                ))


@register_pass(
    "DET",
    "determinism: seeded RNG only, no wall clocks or unordered iteration "
    "in cycle-level code",
    RULES,
)
def run(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for file in project.files:
        if file.tree is None:
            continue
        aliases = import_aliases(file.tree)
        _check_rng_calls(file, aliases, findings)
        _check_doc_examples(file, findings)
        if _in_packages(file, CYCLE_LEVEL_PACKAGES) and not _in_packages(
            file, CLOCK_WHITELISTED_PACKAGES
        ):
            _check_wall_clock(file, aliases, findings)
        if _in_packages(file, ORDER_SENSITIVE_PACKAGES):
            _check_iteration_order(file, findings)
    return findings
