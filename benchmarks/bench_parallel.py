"""Wall-clock benchmark of parallel + cached whole-model simulation.

Sweeps every Table I model across timing-heavy dense hardware points
three ways:

1. **serial** — the classic layer-by-layer :func:`simulate` path;
2. **parallel cold** — :class:`~repro.parallel.ParallelModelRunner` with
   4 workers and an empty on-disk :class:`~repro.parallel.SimCache`
   (repeated shapes within the sweep are deduplicated and memoized);
3. **parallel warm** — the same sweep again against the now-populated
   disk cache, so only the functional pass and cache lookups remain.

4. **serial vector** — the serial sweep again with
   ``engine_mode=vector``, so the systolic engine's tile-class
   aggregate is timed against the per-tile walk it stands in for
   (ROADMAP item 1).

Total cycles must be byte-identical across all four paths — the
benchmark asserts it — and the headline numbers are the warm-over-serial
and vector-over-serial speedups, recorded in ``BENCH_parallel.json`` at
the repo root. The vector speedup is Amdahl-bound by the functional
forward pass both engines share, so it is reported per hardware point:
timing-heavy cells (``tpu16``) show the kernel wins; timing-light cells
(``maeri256``) are frontend-dominated and sit near 1x.

``--jobs`` is clamped to the host's CPU count: worker processes beyond
the core count only add scheduling overhead, and a record produced that
way would attribute the slowdown to the parallel runner. A clamped run
is annotated with ``jobs_requested``/``oversubscribed``.

Beyond the aggregate totals the record carries:

- ``samples`` — per-(model, hardware) wall-clock seconds for every
  sweep, so a regression in a single cell is visible instead of being
  averaged away;
- ``stage_seconds`` / ``telemetry_overhead_pct`` — the warm sweep
  re-runs best-of-3 with host telemetry off and then on: the
  record/simulate/merge wall-clock breakdown and telemetry's own cost
  (asserted <5%, on best-of-3 so scheduler noise cancels);
- ``hotspots`` — a sampled squeezenet/tpu16 profile whose top component
  feeds ROADMAP item 1 (vectorize the cycle-level hot paths).

Standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--jobs N] [--out PATH]
"""

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.config import EngineMode, maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.parallel import SimCache

MODELS = (
    "mobilenets", "squeezenet", "alexnet", "resnet50", "vgg16",
    "ssd-mobilenets", "bert",
)

DEFAULT_JOBS = 4


def hardware_points():
    """Dense (cacheable) configurations, biased toward timing-heavy ones."""
    return (
        ("tpu16", tpu_like(num_pes=16)),
        ("tpu256", tpu_like(num_pes=256)),
        ("maeri64", maeri_like(num_ms=64, bandwidth=32)),
        ("maeri256", maeri_like(num_ms=256, bandwidth=128)),
    )


def _model_run(name):
    model = build_model(name, seed=0)
    x = model_input(name, batch=1, seed=1)
    return model, x


def _serial_sweep(points, engine_mode=EngineMode.CYCLE):
    cycles = {}
    samples = {}
    start = time.perf_counter()
    for model_name in MODELS:
        model, x = _model_run(model_name)
        for hw_name, config in points:
            cell_start = time.perf_counter()
            acc = Accelerator(config.with_updates(engine_mode=engine_mode))
            simulate(model, acc)
            model(x)
            detach_context(model)
            cycles[(model_name, hw_name)] = acc.report.total_cycles
            samples[f"{model_name}/{hw_name}"] = round(
                time.perf_counter() - cell_start, 4
            )
    return time.perf_counter() - start, cycles, samples


def _parallel_sweep(points, jobs, cache_dir):
    cycles = {}
    samples = {}
    stats = {"simulated": 0, "cache_hits": 0, "deduplicated": 0, "fallbacks": 0}
    cache = SimCache(cache_dir)
    start = time.perf_counter()
    for model_name in MODELS:
        model, x = _model_run(model_name)
        for hw_name, config in points:
            cell_start = time.perf_counter()
            # pin the cycle-stepped engine so speedup_cold/speedup_warm
            # keep measuring the parallel runner and the cache, not the
            # vector kernels (those get their own sweep)
            acc = Accelerator(
                config.with_updates(engine_mode=EngineMode.CYCLE)
            )
            result = simulate_parallel(model, acc, x, jobs=jobs, cache=cache)
            cycles[(model_name, hw_name)] = acc.report.total_cycles
            samples[f"{model_name}/{hw_name}"] = round(
                time.perf_counter() - cell_start, 4
            )
            stats["simulated"] += result.simulated
            stats["cache_hits"] += result.cache_hits
            stats["deduplicated"] += result.deduplicated
            stats["fallbacks"] += result.fallbacks
    return time.perf_counter() - start, cycles, samples, stats


def _profile_hotspots(engine_mode=EngineMode.CYCLE, repeat=5, interval_s=0.001):
    """Sampled squeezenet/tpu16 profile: where host wall-clock goes."""
    from repro.observability.telemetry import profile_call

    model, x = _model_run("squeezenet")
    config = tpu_like(num_pes=16).with_updates(engine_mode=engine_mode)

    def _run():
        for _ in range(repeat):
            acc = Accelerator(config)
            simulate(model, acc)
            model(x)
            detach_context(model)

    _, report = profile_call(_run, interval_s=interval_s)
    return {
        "model": "squeezenet",
        "hardware": "tpu16",
        "engine_mode": engine_mode.value,
        "samples": report.samples,
        "attributed_fraction": round(report.attributed_fraction(), 4),
        "top_component": report.top_component(),
        "shares": {k: round(v, 4) for k, v in report.shares().items()},
    }


def _vector_speedup_by_hardware(points, serial_samples, vector_samples):
    """Per-hardware-point serial/vector wall-clock ratio (all models)."""
    speedups = {}
    for hw_name, _ in points:
        ref = sum(
            s for cell, s in serial_samples.items()
            if cell.endswith(f"/{hw_name}")
        )
        vec = sum(
            s for cell, s in vector_samples.items()
            if cell.endswith(f"/{hw_name}")
        )
        speedups[hw_name] = round(ref / vec, 3) if vec else 0.0
    return speedups


def run_benchmark(jobs=DEFAULT_JOBS, out_path=None, cache_dir=None):
    """Run the four-way sweep; returns (and optionally writes) the record."""
    points = hardware_points()
    jobs_requested = jobs
    # oversubscribing a small host only measures scheduler thrash; clamp
    # and annotate instead of publishing a misattributed slowdown
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    owned_tmp = None
    if cache_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="stonne-simcache-")
        cache_dir = owned_tmp.name
    from repro.observability.telemetry import enable_telemetry

    try:
        # best-of-2 per cell: the serial/vector ratio gates CI, so one
        # scheduler hiccup in a sub-second cell must not decide it
        serial_s, serial_cycles, serial_samples = _serial_sweep(points)
        _, rerun_cycles, rerun_samples = _serial_sweep(points)
        assert rerun_cycles == serial_cycles
        serial_samples = {
            cell: min(s, rerun_samples[cell])
            for cell, s in serial_samples.items()
        }
        vector_s, vector_cycles, vector_samples = _serial_sweep(
            points, engine_mode=EngineMode.VECTOR
        )
        _, rerun_cycles, rerun_samples = _serial_sweep(
            points, engine_mode=EngineMode.VECTOR
        )
        assert rerun_cycles == vector_cycles
        vector_samples = {
            cell: min(s, rerun_samples[cell])
            for cell, s in vector_samples.items()
        }
        cold_s, cold_cycles, cold_samples, cold_stats = _parallel_sweep(
            points, jobs, cache_dir
        )
        warm_s, warm_cycles, warm_samples, warm_stats = _parallel_sweep(
            points, jobs, cache_dir
        )
        # Telemetry overhead: the warm sweep again, telemetry off vs on,
        # best-of-3 each so scheduler noise on a sub-second sweep does
        # not swamp the comparison. The headline parallel_warm_s stays
        # the first telemetry-off run above.
        warm_off_best = warm_s
        for _ in range(2):
            rerun_s, rerun_cycles, _, _ = _parallel_sweep(
                points, jobs, cache_dir
            )
            assert rerun_cycles == warm_cycles
            warm_off_best = min(warm_off_best, rerun_s)
        registry = enable_telemetry(True)
        try:
            warm_tel_best = None
            for _ in range(3):
                registry.reset()  # stage_seconds reflects one sweep
                warm_tel_s, warm_tel_cycles, _, _ = _parallel_sweep(
                    points, jobs, cache_dir
                )
                warm_tel_best = (
                    warm_tel_s if warm_tel_best is None
                    else min(warm_tel_best, warm_tel_s)
                )
            stage_hist = registry.get("stonne_stage_seconds")
            stage_seconds = {
                stage: round(stage_hist.sum(stage=stage), 4)
                for stage in ("record", "simulate", "merge")
            } if stage_hist is not None else {}
        finally:
            enable_telemetry(False)
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()

    hotspots = _profile_hotspots()
    hotspots_vector = _profile_hotspots(engine_mode=EngineMode.VECTOR)
    identical = (
        serial_cycles == vector_cycles == cold_cycles == warm_cycles
        == warm_tel_cycles
    )
    overhead_pct = (warm_tel_best - warm_off_best) / warm_off_best * 100.0
    record = {
        "benchmark": "parallel+cached whole-model simulation",
        "jobs": jobs,
        "jobs_requested": jobs_requested,
        "oversubscribed": jobs_requested > jobs,
        "cpu_count": os.cpu_count(),
        "models": list(MODELS),
        "hardware": [name for name, _ in points],
        "runs": len(MODELS) * len(points),
        "serial_s": round(serial_s, 4),
        "serial_vector_s": round(vector_s, 4),
        "parallel_cold_s": round(cold_s, 4),
        "parallel_warm_s": round(warm_s, 4),
        "parallel_warm_telemetry_s": round(warm_tel_best, 4),
        "telemetry_overhead_pct": round(overhead_pct, 2),
        "speedup_cold": round(serial_s / cold_s, 3),
        "speedup_warm": round(serial_s / warm_s, 3),
        "speedup_vector": round(serial_s / vector_s, 3),
        "speedup_vector_by_hardware": _vector_speedup_by_hardware(
            points, serial_samples, vector_samples
        ),
        "samples": {
            "serial": serial_samples,
            "serial_vector": vector_samples,
            "parallel_cold": cold_samples,
            "parallel_warm": warm_samples,
        },
        "stage_seconds": stage_seconds,
        "hotspots": hotspots,
        "hotspots_vector": hotspots_vector,
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
        "cycles_identical": identical,
    }
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
    return record


def test_parallel_benchmark_speedup(jobs, tmp_path):
    """Cycles identical across paths; the warm cache beats serial >= 2x."""
    record = run_benchmark(
        jobs=jobs or DEFAULT_JOBS, cache_dir=str(tmp_path / "simcache")
    )
    print(json.dumps(record, indent=2))
    assert record["cycles_identical"]
    assert record["cold_stats"]["fallbacks"] == 0
    assert record["warm_stats"]["cache_hits"] > 0
    assert record["speedup_warm"] >= 2.0
    assert record["jobs"] <= (os.cpu_count() or 1)
    # the vector engine must clearly beat the stepped reference where
    # timing dominates the cell (tpu16 = many small tiles); the sweep
    # total is Amdahl-bound by the shared functional forward pass
    assert record["speedup_vector_by_hardware"]["tpu16"] >= 5.0
    assert record["speedup_vector"] > 1.0
    # every sweep carries one wall-clock sample per (model, hardware) cell
    for sweep in ("serial", "serial_vector", "parallel_cold", "parallel_warm"):
        assert len(record["samples"][sweep]) == record["runs"]
    assert record["telemetry_overhead_pct"] < 5.0
    for profile in ("hotspots", "hotspots_vector"):
        assert record[profile]["top_component"] is not None
        assert record[profile]["attributed_fraction"] >= 0.95


def _register_bench(record):
    """Append the bench record to the run registry; returns the run id.

    Only the standalone entry point registers (the pytest path must not
    touch any registry). The run id lands inside the JSON record so the
    committed numbers stay traceable to their full registry entry.
    """
    from repro.observability.registry import RunRegistry, registry_enabled

    if not registry_enabled(default=True):
        return None
    try:
        with RunRegistry() as registry:
            return registry.record_payload(
                "bench:parallel", dict(record), source="bench",
                wall_clock_s=record["serial_s"] + record["parallel_cold_s"]
                + record["parallel_warm_s"],
            )
    except OSError as exc:
        print(f"warning: bench run not registered: {exc}")
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_parallel.json"),
        help="where to write the benchmark record",
    )
    args = parser.parse_args(argv)
    record = run_benchmark(jobs=args.jobs)
    run_id = _register_bench(record)
    if run_id is not None:
        record["registry_run_id"] = run_id
    Path(args.out).write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record, indent=2))
    print(f"\nwritten to {args.out}")
    return 0 if record["cycles_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
