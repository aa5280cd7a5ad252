"""SCHEMA-DRIFT: persisted payload keys match the committed manifest.

Registry payloads are the repo's only durable artifact: regression
baselines, ``insight`` analyses and (per ROADMAP item 2) future learned
surrogates all read them back, possibly years after the run. The shape
of what :meth:`RunRecord.from_report` persists is therefore versioned
(``SCHEMA_VERSION``) with an append-only ``REGISTRY_SCHEMA_MANIFEST``
recording the top-level payload keys and per-layer row keys of every
version ever shipped.

This pass re-derives the *current* key sets straight from the AST —
the ``payload`` dict literal and its ``payload[...] = `` stores in
``from_report``, plus the per-layer row seeded from
``LayerReport.to_payload`` (cross-module) with its ``row.pop(...)`` /
``row[...] = `` edits — and diffs them against the manifest entry for
``SCHEMA_VERSION``. Changing what gets persisted without bumping the
version and appending a manifest entry is a finding before it can
corrupt a single store.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    literal_assignment,
    register_pass,
)

REGISTRY_MODULE = "repro.observability.registry"
STATS_MODULE = "repro.engine.stats"

RULES = (
    Rule(
        id="SCHEMA-DRIFT",
        summary="persisted payload keys changed without a schema bump",
        rationale=(
            "stored records outlive the code that wrote them; a key "
            "added or dropped under an unchanged SCHEMA_VERSION makes "
            "old and new payloads indistinguishable to every reader"
        ),
    ),
    Rule(
        id="SCHEMA-VERSION",
        summary="schema version / manifest inconsistency",
        rationale=(
            "the manifest is append-only history: the current "
            "SCHEMA_VERSION must have an entry and must be the newest"
        ),
    ),
)


def _find_function(tree: ast.AST, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _dict_literal_keys(node: ast.Dict) -> Set[str]:
    return {
        key.value for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _layer_payload_keys(stats: Optional[SourceFile]) -> Set[str]:
    """Keys of the dict literal ``LayerReport.to_payload`` returns."""
    if stats is None or stats.tree is None:
        return set()
    fn = _find_function(stats.tree, "to_payload")
    if fn is None:
        return set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            return _dict_literal_keys(node.value)
    return set()


def _persisted_keys(
    from_report: ast.FunctionDef, layer_seed: Set[str]
) -> Tuple[Set[str], Set[str], int]:
    """(payload keys, per-layer row keys, payload line) from the AST.

    The payload variable is whichever name is assigned a dict literal
    containing a ``"schema"`` key; the row variable is whichever name is
    assigned from a ``*.to_payload()`` call.
    """
    payload_var: Optional[str] = None
    payload_keys: Set[str] = set()
    payload_line = from_report.lineno
    row_var: Optional[str] = None
    row_keys: Set[str] = set(layer_seed)

    for node in ast.walk(from_report):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Dict):
                keys = _dict_literal_keys(value)
                if "schema" in keys:
                    payload_var = target
                    payload_keys |= keys
                    payload_line = node.lineno
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "to_payload"
            ):
                row_var = target

    for node in ast.walk(from_report):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    if target.value.id == payload_var:
                        payload_keys.add(target.slice.value)
                    elif target.value.id == row_var:
                        row_keys.add(target.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == row_var
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            row_keys.discard(str(node.args[0].value))
    return payload_keys, row_keys, payload_line


def _diff(kind: str, actual: Set[str], declared: Set[str]) -> str:
    added = sorted(actual - declared)
    removed = sorted(declared - actual)
    parts = []
    if added:
        parts.append(f"persists undeclared {kind} key(s) {added}")
    if removed:
        parts.append(f"no longer persists declared {kind} key(s) {removed}")
    return "; ".join(parts)


@register_pass(
    "SCHEMA-DRIFT",
    "the registry's persisted payload/layer keys (extracted from the "
    "AST) match the committed manifest for the current SCHEMA_VERSION",
    RULES,
)
def run(project: Project) -> List[Finding]:
    registry = project.module(REGISTRY_MODULE)
    if registry is None or registry.tree is None:
        return []
    findings: List[Finding] = []

    version, line, _ = literal_assignment(registry.tree, "SCHEMA_VERSION")
    version_line = line or 1
    manifest = literal_assignment(
        registry.tree, "REGISTRY_SCHEMA_MANIFEST"
    ).value
    if not isinstance(version, int) or not isinstance(manifest, dict):
        findings.append(Finding(
            rule="SCHEMA-VERSION", path=registry.relpath, line=version_line,
            message=(
                "registry must declare SCHEMA_VERSION (int literal) and "
                "REGISTRY_SCHEMA_MANIFEST (dict literal)"
            ),
        ))
        return findings
    if version not in manifest:
        findings.append(Finding(
            rule="SCHEMA-VERSION", path=registry.relpath, line=version_line,
            message=(
                f"REGISTRY_SCHEMA_MANIFEST has no entry for the current "
                f"SCHEMA_VERSION {version}"
            ),
        ))
        return findings
    if max(manifest) != version:
        findings.append(Finding(
            rule="SCHEMA-VERSION", path=registry.relpath, line=version_line,
            message=(
                f"manifest records version {max(manifest)} newer than "
                f"SCHEMA_VERSION {version}; the manifest is append-only "
                "history and the current version must be the newest"
            ),
        ))

    from_report = _find_function(registry.tree, "from_report")
    if from_report is None:
        return findings
    layer_seed = _layer_payload_keys(project.module(STATS_MODULE))
    payload_keys, row_keys, payload_line = _persisted_keys(
        from_report, layer_seed
    )
    declared = manifest[version]
    declared_payload = set(declared.get("payload", []))
    declared_layer = set(declared.get("layer", []))

    if payload_keys and payload_keys != declared_payload:
        findings.append(Finding(
            rule="SCHEMA-DRIFT", path=registry.relpath, line=payload_line,
            message=(
                f"from_report {_diff('payload', payload_keys, declared_payload)} "
                f"under unchanged SCHEMA_VERSION {version}; bump the "
                "version and append a manifest entry"
            ),
        ))
    if row_keys and layer_seed and row_keys != declared_layer:
        findings.append(Finding(
            rule="SCHEMA-DRIFT", path=registry.relpath,
            line=from_report.lineno,
            message=(
                f"from_report {_diff('layer', row_keys, declared_layer)} "
                f"under unchanged SCHEMA_VERSION {version}; bump the "
                "version and append a manifest entry"
            ),
        ))
    return findings
