"""Seeded production mutants, each of which a named test must catch.

Each mutant is one edit to production. Six edit the closed-form timing,
which ``tests/property/test_prop_clock.py`` must catch, one SNAPEA's
termination scan, which ``tests/differential/test_snapea_scan_oracle.py``
must catch, one leaves a systolic layer's stall ledger empty, which
``tests/property/test_prop_ledger_compute_busy.py`` must catch (an empty
ledger finalizes as all idle and passes conservation), and one replays a
folded layer's trace records where its twin ran, which
``tests/differential/test_trace_fold.py`` must catch. The other ten
stand for the checks ``docs/STATIC_ANALYSIS.md``
weighs, one each: a fault of the kind the check was written for. Where a
runtime test catches it, that test is named and the check is gone; where
only a lint pass does, the entry names
``tests/unit/test_self_lint.py::test_src_repro_lints_clean`` and the pass
stays. The script copies ``src/`` and ``tests/`` into a temporary
directory, applies one mutant there, runs the mutant's test against the
copy and expects it to fail; the working tree is never edited. Run from
the repository root::

    python tests/oracles/mutants.py

It prints one line per mutant and exits non-zero if a test passed under
its mutant (or if a mutant no longer applies).
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
LINT = "tests/unit/test_self_lint.py::test_src_repro_lints_clean"
STALL_COUNTERS = "tests/property/test_prop_stall_counters.py"

#: (name, file under src/repro, text, replacement, test): one per fabric
#: and queue, one for the SNAPEA scan, one for the traced fold, and one
#: per lint pass and for the sanitizer, each named after the check it
#: stands for
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
    (
        "DET: conv weights drawn from the global RNG",
        "frontend/layers.py",
        "rng.standard_normal(\n                    (out_channels",
        "np.random.standard_normal(\n                    (out_channels",
        "tests/regression/test_sigma_payload_pin.py"
        "::test_zoo_sigma_payload_pinned[squeezenet-sigma64-False]",
    ),
    (
        "CACHE-KEY: conv stride left out of the key",
        "engine/workload.py",
        '"conv": ("stride", "padding", "groups", "tile"),',
        '"conv": ("padding", "groups", "tile"),',
        "tests/property/test_prop_cache_key_fields.py",
    ),
    (
        "PAR-SAFE: energy table scaled in place by the dtype factor",
        "engine/energy.py",
        "scale = _NODE_SCALE[technology_nm] * _DTYPE_SCALE[dtype]",
        "scale = _NODE_SCALE[technology_nm] = "
        "_NODE_SCALE[technology_nm] * _DTYPE_SCALE[dtype]",
        "tests/regression/test_energy_process_history.py",
    ),
    (
        "EXC: the CLI reports any exception as a user error",
        "ui/cli.py",
        "except StonneError as exc:\n        print(",
        "except Exception as exc:\n        print(",
        LINT,
    ),
    (
        "COUNTER: gb_writes misspelt",
        "memory/global_buffer.py",
        'self.counters.add("gb_writes", elements)',
        'self.counters.add("gb_wrties", elements)',
        STALL_COUNTERS + "::test_sweep_increments_only_registered_names",
    ),
    (
        "LEDGER: systolic GEMM cycles never charged to the stall ledger",
        "engine/systolic.py",
        "self._charge_stalls(ledger, classes, dram_stall * repeats)",
        "pass",
        STALL_COUNTERS + "::test_every_registered_name_is_reachable",
    ),
    (
        "ATTRIBUTION: a systolic layer finalizes an empty, all-idle ledger",
        "engine/systolic.py",
        "self._charge_stalls(ledger, classes, dram_stall * repeats)",
        "pass",
        "tests/property/test_prop_ledger_compute_busy.py",
    ),
    (
        "trace fold: a repeat's records left at its twin's base",
        "engine/accelerator.py",
        "self.obs.tracer.extend(fold.trace, self.obs.base - fold.base)",
        "self.obs.tracer.extend(fold.trace)",
        "tests/differential/test_trace_fold.py",
    ),
    (
        "OBS-NEUTRAL: metrics sampling folds counters into the engine's "
        "tile deltas",
        "observability/context.py",
        "for key, amount in delta.items():\n"
        "                        counts[key] = counts.get(key, 0) + amount\n",
        "for key, amount in counts.items():\n"
        "                        delta[key] = delta.get(key, 0) + amount\n"
        "                    counts = delta\n",
        "tests/regression/test_metrics_sample_pin.py::test_metrics_samples"
        "_pinned[mobilenets-tpu16-ws-64-False-cycle-serial]",
    ),
    (
        "SCHEMA-DRIFT: a layer key persisted under the same schema version",
        "observability/registry.py",
        'row["energy_total_uj"] = round(layer.energy(config).total_uj, 6)',
        'row["energy_total_uj"] = round(layer.energy(config).total_uj, 6)'
        '\n            row["host_s"] = 0.0',
        "tests/unit/test_registry.py"
        "::test_persisted_keys_match_the_manifest_of_the_current_version",
    ),
    (
        "FLOAT-ORDER: on-chip energy summed in dict order",
        "engine/energy.py",
        "return math.fsum(\n            value for group",
        "return sum(\n            value for group",
        LINT,
    ),
    (
        "sanitizer: DRAM row buffer carried from layer to layer",
        "engine/accelerator.py",
        "self.dram.new_layer()",
        "pass",
        "tests/differential/test_serial_parallel_cache.py"
        "::test_serial_parallel_cached_identical[squeezenet-maeri]",
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
