"""Seeded mutants the clock property and the SNAPEA scan oracle must catch.

Each mutant is one edit to production: six to the closed-form timing,
which ``tests/property/test_prop_clock.py`` must catch, and one to
SNAPEA's termination scan, which
``tests/differential/test_snapea_scan_oracle.py`` must catch. The script
copies ``src/`` and ``tests/`` into a temporary directory, applies one
mutant there, runs the mutant's test file against the copy and expects
it to fail; the working tree is never edited. Run from the repository
root::

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

CLOCK = "tests/property/test_prop_clock.py"
SNAPEA = "tests/differential/test_snapea_scan_oracle.py"

#: (name, file under src/repro, text, replacement, test file): one per
#: fabric and queue, and one for the SNAPEA scan
MUTANTS = [
    (
        "MAERI: fold psum drain dropped",
        "memory/dense_controller.py",
        "drain = self.rn.output_cycles(cost.outputs_completed + cost.psum_writebacks)",
        "drain = self.rn.output_cycles(cost.outputs_completed)",
        CLOCK,
    ),
    (
        "SIGMA: merge add of resumed rows dropped",
        "memory/sparse_controller.py",
        "merge = -(-merge_reads // bandwidth) + -(-merge_reads // self.rn.bandwidth)",
        "merge = -(-merge_reads // bandwidth)",
        CLOCK,
    ),
    (
        "systolic OS: skew off by one",
        "engine/systolic.py",
        "return k + m + n - 2 + PIPE_OVERHEAD",
        "return k + m + n - 1 + PIPE_OVERHEAD",
        CLOCK,
    ),
    (
        "systolic WS: preload off by one",
        "engine/systolic.py",
        "return k + (m + k + n - 2) + PIPE_OVERHEAD",
        "return k - 1 + (m + k + n - 2) + PIPE_OVERHEAD",
        CLOCK,
    ),
    (
        "DN queue: busy clocks floored in skip_cycles",
        "noc/distribution.py",
        "busy = min(count, math.ceil(self._pending_slots / self.bandwidth))",
        "busy = min(count, self._pending_slots // self.bandwidth)",
        CLOCK,
    ),
    (
        "DN queue: busy clocks floored in schedule_deliveries",
        "noc/distribution.py",
        "np.minimum(cycles, -(-queued // self.bandwidth), out=costs[:, 3])",
        "np.minimum(cycles, queued // self.bandwidth, out=costs[:, 3])",
        CLOCK,
    ),
    (
        "SNAPEA: bias seeded into the first running sum",
        "opts/snapea.py",
        "np.cumsum(csum, axis=0, out=csum)\n            csum[biased:] += bias[f]",
        "csum[0] += bias[f]\n            np.cumsum(csum, axis=0, out=csum)",
        SNAPEA,
    ),
]

ROOT = Path(__file__).resolve().parents[2]


def caught(file: str, text: str, replacement: str, test: str) -> bool:
    """Whether ``test`` fails with the mutant applied to a copy."""
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
             "no:cacheprovider", test],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True,
        )
        return run.returncode == 1


def main() -> int:
    missed = 0
    for name, file, text, replacement, test in MUTANTS:
        hit = caught(file, text, replacement, test)
        missed += not hit
        print(f"{'caught' if hit else 'MISSED'}: {name}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
