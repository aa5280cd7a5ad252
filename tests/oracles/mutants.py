"""Seeded mutants the clock property must catch.

Each mutant is one edit to production's closed-form timing. The script
copies ``src/`` and ``tests/`` into a temporary directory, applies one
mutant there, runs ``tests/property/test_prop_clock.py`` against the
copy and expects it to fail; the working tree is never edited. Run from
the repository root::

    python tests/oracles/mutants.py

It prints one line per mutant and exits non-zero if the property passed
under any of them (or if a mutant no longer applies).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: (name, file under src/repro, text, replacement): one per fabric and
#: queue
MUTANTS = [
    (
        "MAERI: fold psum drain dropped",
        "memory/dense_controller.py",
        "drain = self.rn.output_cycles(cost.outputs_completed + cost.psum_writebacks)",
        "drain = self.rn.output_cycles(cost.outputs_completed)",
    ),
    (
        "SIGMA: merge add of resumed rows dropped",
        "memory/sparse_controller.py",
        "merge = -(-merge_reads // bandwidth) + -(-merge_reads // self.rn.bandwidth)",
        "merge = -(-merge_reads // bandwidth)",
    ),
    (
        "systolic OS: skew off by one",
        "engine/systolic.py",
        "return k + m + n - 2 + PIPE_OVERHEAD",
        "return k + m + n - 1 + PIPE_OVERHEAD",
    ),
    (
        "systolic WS: preload off by one",
        "engine/systolic.py",
        "return k + (m + k + n - 2) + PIPE_OVERHEAD",
        "return k - 1 + (m + k + n - 2) + PIPE_OVERHEAD",
    ),
    (
        "DN queue: busy clocks floored in skip_cycles",
        "noc/distribution.py",
        "busy = min(count, math.ceil(self._pending_slots / self.bandwidth))",
        "busy = min(count, self._pending_slots // self.bandwidth)",
    ),
    (
        "DN queue: busy clocks floored in schedule_deliveries",
        "noc/distribution.py",
        "np.minimum(cycles, -(-queued // self.bandwidth), out=costs[:, 3])",
        "np.minimum(cycles, queued // self.bandwidth, out=costs[:, 3])",
    ),
]

ROOT = Path(__file__).resolve().parents[2]


def caught(file: str, text: str, replacement: str) -> bool:
    """Whether the property fails with the mutant applied to a copy."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, copy / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        shutil.copy(ROOT / "conftest.py", copy)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "repro" / file
        source = target.read_text()
        if source.count(text) != 1:
            raise SystemExit(f"mutant no longer applies to {file}: {text!r}")
        target.write_text(source.replace(text, replacement))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "tests/property/test_prop_clock.py"],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True,
        )
        return run.returncode == 1


def main() -> int:
    missed = 0
    for name, file, text, replacement in MUTANTS:
        hit = caught(file, text, replacement)
        missed += not hit
        print(f"{'caught' if hit else 'MISSED'}: {name}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
