#!/usr/bin/env python3
"""The repo's performance benchmark: seven sweeps, calibrated host time.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--smoke] [--out PATH]

Prints every metric by name with its unit, verifies the simulator's
outputs, and exits non-zero on any verification failure. The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). Each workload runs in child processes of its
own (clean ``ru_maxrss``, clean module caches); see README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

DEFAULT_SECONDS = 12
#: processes a workload is measured in, one after the other, each for its
#: share of --seconds. Identical processes differ by a few per cent for
#: as long as they live (memory layout); three of them average that out,
#: and give three set-ups for setup_s to be the median of.
CHILDREN = 3
WORKLOAD_NAMES = (
    "dense_cycle", "dense_vector", "sparse_sigma", "cache_cold",
    "cache_warm", "lenses_on", "tablev_fidelity",
)


# ----------------------------------------------------------------------
# child: one workload, measured in this process
# ----------------------------------------------------------------------
def _run_pass(W, state, rec, meter=None, problems=None):
    """One pass. Returns (cell id -> cycles, summed parallel counts,
    cells that raised). ``problems`` set: verify every cell's result."""
    cache = W.pass_cache(state)
    cycles, counts, raised = {}, {}, 0
    for cell in state.cells:
        rec.cell = cell.cell_id

        def call(cell=cell):
            with rec.span("harness.cell"):
                return W.run_cell(state, cell, cache, rec)

        try:
            result = meter.time_cell(call) if meter is not None else call()
        except Exception:  # a failed cell is counted, the sweep goes on
            traceback.print_exc()
            raised += 1
            continue
        cycles[cell.cell_id] = result.cycles
        for key, value in (result.parallel or {}).items():
            counts[key] = counts.get(key, 0) + value
        if problems is not None:
            problems += W.verify_cell(state, cell, result)
    rec.cell = None
    W.drop_pass_cache(state, cache)
    return cycles, counts, raised


def _measure(W, H, state, args):
    """Warm-up, timed runs, verification. Returns the child's record:
    per-run samples and per-cell milliseconds, merged by the parent."""
    workload = state.workload
    problems = []
    warm_up, _, raised = _run_pass(W, state, W.NO_SPANS, problems=problems)
    passes = 1 if args.smoke else workload.passes
    macs = W.macs_per_pass(state) * passes

    runs, pass_cycles, pass_counts, cell_ms = [], [], [], []
    calibrator = H.Calibrator(state.workload.blas_share)
    started = time.perf_counter()
    while True:
        meter = H.RunMeter(calibrator, workload.cal_stride, state.jobs > 1)
        for _ in range(passes):
            cycles, counts, failed = _run_pass(W, state, W.NO_SPANS, meter)
            raised += failed
            pass_cycles.append(cycles)
            pass_counts.append(counts)
        meter.close()
        runs.append({
            "norm_time": meter.norm_time, "cpu_s": meter.cpu_s,
            "kmacs_per_host_s": macs / meter.ref_s / 1e3,
            "wall_s": meter.wall_s,
        })
        cell_ms += meter.cell_ms
        if len(runs) == 1:
            # after a fixed amount of work: later runs still grow the
            # peak by steps, and how many fit in --seconds is the host's
            rss_mb = H.peak_rss_mb()
        elapsed = time.perf_counter() - started
        # stop once another run would overshoot --seconds by more than
        # it undershoots now
        if args.smoke or elapsed + 0.5 * elapsed / len(runs) >= args.seconds:
            break
    problems += W.verify_passes(
        state, warm_up, pass_cycles[0], pass_cycles[-1], pass_counts,
        args.reference)
    mean_err, max_err = W.tablev_errors()
    attempted = len(state.cells) * len(pass_cycles)
    return {
        "attempted": attempted,
        "failed": min(attempted, raised + len(problems)),
        "problems": problems, "cycles": pass_cycles[-1],
        "runs": runs, "cell_ms": cell_ms, "peak_rss_mb": rss_mb,
        "tablev_mean_err_pct": mean_err, "tablev_max_err_pct": max_err,
    }


def _trace(W, H, state, args, env):
    """The --trace measurement: spans of one pass plus layer probes."""
    import layertrace
    from metrics import PER_LAYER

    problems = []
    cycles, _, raised = _run_pass(W, state, W.NO_SPANS, problems=problems)

    calibrator = H.Calibrator(state.workload.blas_share)

    def run_pass(rec):
        """One pass; returns its calibrated seconds."""
        nonlocal raised
        meter = H.RunMeter(calibrator, state.workload.cal_stride)
        raised += _run_pass(W, state, rec, meter)[2]
        meter.close()
        return meter.ref_s

    probe_cells = (W.tablev_row_cells() if state.workload.path == "tablev"
                   else state.cells)
    values, spans = layertrace.traced_numbers(
        state, probe_cells, args.seed, run_pass, calibrator, env)
    attempted = len(state.cells) * 4
    by_name = layertrace.self_seconds(spans)
    return {
        "attempted": attempted,
        "failed": min(attempted, raised + len(problems)),
        "problems": problems,
        "cycles": cycles,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in PER_LAYER
        },
        "spans": spans,
        "self_seconds": by_name,
        # the root span: self times of a span tree sum to it
        "self_seconds_total": spans[0]["end"] - spans[0]["start"],
        "layer_seconds": layertrace.layer_shares(by_name),
    }


def child_main(args):
    """Set up and measure one workload; the record goes to --result."""
    import harness as H  # imports nothing heavy: set-up is not yet timed

    before = sorted(H.py_slowdown() for _ in range(3))[1]
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads as W
    from repro.parallel import shutdown_pools

    workload = W.WORKLOADS[args.workload]
    batch = W.SMOKE_BATCH if args.smoke else W.BATCH
    nproc = os.cpu_count() or 1
    if workload.jobs > 1 and hasattr(os, "sched_setaffinity"):
        # The pool's workers inherit this. Left to float, they run on
        # another core than the calibration slice, whose speed the slice
        # cannot see (norm_time of identical invocations spread 12 %,
        # against 3 % pinned); the two workers still pickle, dispatch and
        # write the cache, which is what this workload is about.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        state = W.set_up(workload, args.seed, batch, os.environ["TMPDIR"],
                         nproc, args.inject_fail)
        setup_s = time.perf_counter() - started
        after = sorted(H.py_slowdown() for _ in range(3))[1]
        record = {"setup_s": setup_s / ((before + after) / 2)}
        if args.trace:
            record.update(_trace(W, H, state, args, dict(os.environ)))
        else:
            record.update(_measure(W, H, state, args))
    finally:
        shutdown_pools()
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# parent: environment, children, report
# ----------------------------------------------------------------------
def _child_env(tmp_dir):
    """A reproducible environment for every process the benchmark starts.

    BLAS was silently using two threads (cpu_s ~ 2 x wall_s); registry,
    run and cache directories all land in the temp dir removed on exit.
    """
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("STONNE_ENGINE_MODE", None)
    env["STONNE_REGISTRY"] = "0"
    env["STONNE_RUNS_DIR"] = os.path.join(tmp_dir, "runs")
    env["TMPDIR"] = tmp_dir
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(args, env, tmp_dir, workload, seconds, reference):
    """Run one child to completion; returns its record."""
    result = os.path.join(tmp_dir, f"result-{workload}.json")
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--result", result,
    ]
    if reference:
        command.append("--reference")
    if args.smoke:
        command.append("--smoke")
    if args.inject_fail:
        command += ["--inject-fail", args.inject_fail]
    done = subprocess.run(command, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def _merge(children):
    """One workload's record from its children's runs.

    A per-run metric's value is the median over every run of every
    child; the cell percentiles are taken once, over all their cells
    pooled (>= 140 at the default --seconds, so p90 has >= 14 beyond it).
    """
    from harness import percentile, summarize
    from metrics import END_TO_END, PRINTED_ONLY

    units = {m.name: m.unit for m in (*END_TO_END, *PRINTED_ONLY)}
    first = children[0]
    problems = [p for child in children for p in child["problems"]]
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    # the first child checked its cycles against the other engine mode
    for child in children[1:]:
        if child["cycles"] != first["cycles"]:
            problems.append("per-cell cycles differ between two processes")
            failed += 1
    failed = min(attempted, failed)

    runs = [run for child in children for run in child["runs"]]
    cell_ms = [ms for child in children for ms in child["cell_ms"]]
    samples = {name: [run[name] for run in runs] for name in runs[0]}
    samples["cell_ms_p50"] = [percentile(cell_ms, 0.5)]
    samples["cell_ms_p90"] = [percentile(cell_ms, 0.9)]
    for name in ("peak_rss_mb", "setup_s"):
        samples[name] = [child[name] for child in children]
    for name in ("tablev_mean_err_pct", "tablev_max_err_pct"):
        samples[name] = [first[name]]
    samples["fail_ratio"] = [failed / attempted]
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "runs": len(runs), "cells": len(cell_ms), "cycles": first["cycles"],
        "metrics": {name: summarize(samples[name], units[name])
                    for name in units},
    }


def _run_workload(args, env, tmp_dir, name):
    """Measure one workload; returns its record."""
    if args.trace:
        return _spawn(args, env, tmp_dir, name, args.seconds, False)
    count = 1 if args.smoke else CHILDREN
    return _merge([
        _spawn(args, env, tmp_dir, name, args.seconds / count, index == 0)
        for index in range(count)])


def _environment():
    import platform

    import numpy

    head = "unknown"  # the driver's checkout is not a git repository
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            head = done.stdout.strip()
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_head": head,
    }


def _print_workload(name, record):
    print(f"\n== {name}: {record['attempted']} cells attempted, "
          f"{record['failed']} failed ==")
    for metric, cell in record["metrics"].items():
        spread = ""
        if cell.get("n", 1) > 1:
            spread = f"   [q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n={cell['n']}]"
        print(f"  {metric:<44}{cell['value']:>16.6g} {cell['unit']}{spread}")
    if "layer_seconds" in record:
        total = sum(record["layer_seconds"].values())
        print("  -- traced pass, self seconds by layer --")
        for layer, seconds in record["layer_seconds"].items():
            print(f"  {layer:<44}{seconds:>16.6g} s   "
                  f"{100 * seconds / total:5.1f} %")
    for problem in record["problems"]:
        print(f"  VERIFY: {problem}")


def _cross_check(records):
    """Suite mode: every child checks its cells against the other engine
    mode; with all five dense workloads in hand, their per-cell cycles
    must also equal ``dense_cycle``'s directly."""
    dense = [n for n in ("dense_cycle", "dense_vector", "cache_cold",
                         "cache_warm", "lenses_on") if n in records]
    problems = []
    for name in dense[1:]:
        reference = records[dense[0]]["cycles"]
        for cell_id, cycles in records[name]["cycles"].items():
            if reference.get(cell_id) != cycles:
                problems.append(
                    f"{cell_id}: {name} {cycles} cycles, "
                    f"{dense[0]} {reference.get(cell_id)}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives model-weight and input seeds")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload's timed runs last")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run: spans to trace.json + probes")
    parser.add_argument("--smoke", action="store_true",
                        help="batch 1, one pass, one run")
    parser.add_argument("--out", help="write the full record as JSON")
    for hidden in ("--result", "--inject-fail"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    for hidden in ("--child", "--reference"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    from metrics import END_TO_END, PER_LAYER

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=scratch)
    env = _child_env(tmp_dir)
    try:
        records = {name: _run_workload(args, env, tmp_dir, name)
                   for name in names}
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    suite_problems = _cross_check(records)
    environment = _environment()
    print("host: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    for name, record in records.items():
        _print_workload(name, record)
    for problem in suite_problems:
        print(f"VERIFY: {problem}")

    if args.trace:
        spans = {name: record.pop("spans") for name, record in records.items()}
        Path("trace.json").write_text(json.dumps(spans), encoding="utf-8")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "trace": args.trace, "environment": environment,
            "workloads": records,
        }, indent=1), encoding="utf-8")

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values()) + len(suite_problems)
    # the result line carries exactly the metrics BENCHMARK.json declares
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, record in records.items():
        prefix = "" if args.workload else f"{name}/"
        for metric in declared:
            cell = record["metrics"][metric.name]
            metrics[prefix + metric.name] = {
                "value": cell["value"], "unit": cell["unit"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
