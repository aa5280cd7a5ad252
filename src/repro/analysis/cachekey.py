"""CACHE-KEY: config-field coverage of the SimCache canonical key.

:class:`~repro.parallel.cache.SimCache` serves a stored
:class:`~repro.engine.stats.LayerReport` whenever (layer geometry, tile,
hardware config) match. Any configuration field that can change timing
but does not reach the canonical key turns the cache into a silent
source of stale results — the nastiest possible failure mode, because
every individual run still looks plausible.

``repro/parallel/cache.py`` therefore carries an in-code manifest:

- ``KEY_COVERED_FIELDS``: class → {field: how it reaches the key}
- ``KEY_EXEMPT_FIELDS``: class → {field: why it legitimately does not}

This pass diffs the manifest against the *actual* dataclass fields of
the config classes, so adding a field without deciding its cache-key
fate is a lint failure instead of a stale-cache bug.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    dataclass_field_names,
    is_dataclass_def,
    literal_assignment,
    register_pass,
)

#: module holding the canonical key and its coverage manifest
CACHE_MODULE = "repro.parallel.cache"

#: config package scanned for dataclass definitions
CONFIG_PACKAGE = "repro.config"

#: classes that must be accounted for even if the manifest forgets them
DEFAULT_CHECKED_CLASSES = (
    "HardwareConfig",
    "DramConfig",
    "TileConfig",
    "ConvLayerSpec",
    "GemmSpec",
)

RULES = (
    Rule(
        id="CACHE-KEY-FIELD",
        summary="config dataclass field not covered by the SimCache key",
        rationale=(
            "a timing-relevant field outside the canonical key means two "
            "different configurations can share a cache entry; declare "
            "how the field reaches the key in KEY_COVERED_FIELDS, or why "
            "it never affects timing in KEY_EXEMPT_FIELDS, and bump "
            "CACHE_SCHEMA_VERSION when coverage changes"
        ),
    ),
    Rule(
        id="CACHE-KEY-STALE",
        summary="cache-key manifest names a field/class that no longer exists",
        rationale=(
            "a stale manifest claims coverage for nothing; it must shrink "
            "in the same change that removes the field"
        ),
    ),
    Rule(
        id="CACHE-KEY-REASON",
        summary="manifest entry without an explanation string",
        rationale=(
            "the manifest is documentation the linter can enforce; an "
            "empty note defeats the audit"
        ),
    ),
    Rule(
        id="CACHE-KEY-MISSING",
        summary="cache module or its coverage manifest not found",
        rationale=(
            "without KEY_COVERED_FIELDS/KEY_EXEMPT_FIELDS in "
            "repro/parallel/cache.py the coverage invariant cannot be "
            "checked at all"
        ),
    ),
)


def _config_classes(project: Project) -> Dict[str, Tuple[str, int, Dict[str, int]]]:
    """class name → (file, class line, {field: line}) for config dataclasses."""
    classes: Dict[str, Tuple[str, int, Dict[str, int]]] = {}
    for file in project.in_packages(CONFIG_PACKAGE):
        if file.tree is None:
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef) or not is_dataclass_def(node):
                continue
            fields: Dict[str, int] = {}
            names = set(dataclass_field_names(node))
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.target.id in names
                ):
                    fields[statement.target.id] = statement.lineno
            classes[node.name] = (file.relpath, node.lineno, fields)
    return classes


@register_pass(
    "CACHE-KEY",
    "every config dataclass field is covered by, or exempted from, the "
    "SimCache canonical key",
    RULES,
)
def run(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    cache_file = project.module(CACHE_MODULE)
    if cache_file is None or cache_file.tree is None:
        # a project without the cache module has nothing to check (e.g.
        # linting a single unrelated file); only a present-but-broken
        # cache module is a finding
        if cache_file is not None:
            findings.append(Finding(
                rule="CACHE-KEY-MISSING", path=cache_file.relpath, line=1,
                message=f"{CACHE_MODULE} does not parse",
            ))
        return findings

    covered, covered_line, _ = literal_assignment(
        cache_file.tree, "KEY_COVERED_FIELDS"
    )
    exempt, exempt_line, _ = literal_assignment(
        cache_file.tree, "KEY_EXEMPT_FIELDS"
    )
    if not isinstance(covered, dict) or not isinstance(exempt, dict):
        missing = []
        if not isinstance(covered, dict):
            missing.append("KEY_COVERED_FIELDS")
        if not isinstance(exempt, dict):
            missing.append("KEY_EXEMPT_FIELDS")
        findings.append(Finding(
            rule="CACHE-KEY-MISSING", path=cache_file.relpath,
            line=max(covered_line, exempt_line, 1),
            message=(
                f"{' and '.join(missing)} must be module-level dict "
                "literals mapping class -> {field: note}"
            ),
        ))
        return findings

    classes = _config_classes(project)
    checked = sorted(
        set(DEFAULT_CHECKED_CLASSES) | set(covered) | set(exempt)
    )

    for class_name in checked:
        manifest_covered = covered.get(class_name, {})
        manifest_exempt = exempt.get(class_name, {})
        if class_name not in classes:
            if class_name in covered or class_name in exempt:
                findings.append(Finding(
                    rule="CACHE-KEY-STALE", path=cache_file.relpath,
                    line=covered_line if class_name in covered else exempt_line,
                    message=(
                        f"manifest entry for {class_name!r} but no such "
                        f"dataclass exists in {CONFIG_PACKAGE}"
                    ),
                ))
            continue
        relpath, class_line, fields = classes[class_name]
        for field_name, field_line in fields.items():
            note = manifest_covered.get(field_name, manifest_exempt.get(field_name))
            if note is None:
                findings.append(Finding(
                    rule="CACHE-KEY-FIELD", path=relpath, line=field_line,
                    message=(
                        f"{class_name}.{field_name} is neither covered by "
                        "the SimCache canonical key nor exempted; update "
                        "the manifest in repro/parallel/cache.py (and bump "
                        "CACHE_SCHEMA_VERSION if the key changes)"
                    ),
                ))
            elif not (isinstance(note, str) and note.strip()):
                findings.append(Finding(
                    rule="CACHE-KEY-REASON", path=cache_file.relpath,
                    line=(
                        covered_line
                        if field_name in manifest_covered else exempt_line
                    ),
                    message=(
                        f"manifest entry {class_name}.{field_name} needs a "
                        "non-empty explanation string"
                    ),
                ))
        for field_name in list(manifest_covered) + list(manifest_exempt):
            if field_name not in fields:
                findings.append(Finding(
                    rule="CACHE-KEY-STALE", path=cache_file.relpath,
                    line=(
                        covered_line
                        if field_name in manifest_covered else exempt_line
                    ),
                    message=(
                        f"manifest covers {class_name}.{field_name}, which "
                        "is not a field of the dataclass"
                    ),
                ))
    return findings
