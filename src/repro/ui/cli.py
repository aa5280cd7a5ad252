"""``stonne`` command-line interface.

Subcommands mirror how the original tool is driven:

- ``stonne conv`` / ``stonne gemm`` / ``stonne spmm`` — the *STONNE User
  Interface*: run a single layer with random tensors on a configured
  accelerator and print the JSON statistics.
- ``stonne model`` — full-model simulation of one Table I model on a
  Table IV architecture.
- ``stonne experiment`` — regenerate one of the paper's figures/tables.
- ``stonne mkconfig`` — write a preset hardware ``.cfg`` file to edit.

Examples::

    stonne conv -R 3 -S 3 -C 6 -K 6 -X 7 -Y 7 --arch maeri --num-ms 32 --bw 4
    stonne gemm -M 64 -N 128 -K 32 --arch sigma --sparsity 0.8
    stonne model resnet50 --arch sigma
    stonne experiment tablev
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import (
    HardwareConfig,
    TileConfig,
    load_config,
    maeri_like,
    save_config,
    sigma_like,
    tpu_like,
)
from repro.engine.accelerator import Accelerator
from repro.errors import StonneError
from repro.observability import Observability
from repro.version import __version__


def _build_config(args: argparse.Namespace) -> HardwareConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    presets = {"tpu": tpu_like, "maeri": maeri_like, "sigma": sigma_like}
    builder = presets[args.arch]
    kwargs = {}
    if args.arch == "tpu":
        kwargs["num_pes"] = args.num_ms
        if args.bw:
            kwargs["bandwidth"] = args.bw
    else:
        kwargs["num_ms"] = args.num_ms
        kwargs["bandwidth"] = args.bw or max(1, args.num_ms // 2)
    return builder(**kwargs)


def _add_hw_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--arch", choices=("tpu", "maeri", "sigma"), default="maeri",
        help="Table IV preset to instantiate",
    )
    parser.add_argument("--num-ms", type=int, default=256,
                        help="multiplier switches / PEs")
    parser.add_argument("--bw", type=int, default=0,
                        help="GB bandwidth in elements/cycle (0 = preset default)")
    parser.add_argument("--config", help="hardware .cfg file (overrides presets)")
    parser.add_argument("--seed", type=int, default=0, help="tensor RNG seed")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON statistics report")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a cycle-level event trace to PATH")
    parser.add_argument("--trace-format", choices=("chrome", "jsonl"),
                        default="chrome",
                        help="trace format: chrome://tracing JSON or JSONL")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the counter time series to PATH")
    parser.add_argument("--metrics-format", choices=("csv", "json"),
                        default="csv",
                        help="metrics export format (json is validatable "
                             "with repro.observability.validate)")
    parser.add_argument("--metrics-every", type=int, default=0, metavar="N",
                        help="sample counters every N cycles "
                             "(default 64 when --metrics is given)")
    parser.add_argument("--profile", action="store_true",
                        help="print host time per simulated layer (and per "
                             "record/simulate/merge stage under --jobs, "
                             "--cache or --live) to stderr")
    parser.add_argument("--stalls", action="store_true",
                        help="attribute every simulated cycle to a stall "
                             "bucket; inspect with 'stonne insight explain'")
    parser.add_argument("--fabric", action="store_true",
                        help="record spatially-resolved DN/MN/RN utilization "
                             "and FIFO occupancy; inspect with 'stonne "
                             "insight fabric'")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect host-side telemetry (cache/pool/registry "
                             "metrics); printed to stderr unless "
                             "--telemetry-out is given")
    parser.add_argument("--telemetry-out", metavar="PATH", default=None,
                        help="write the telemetry snapshot to PATH "
                             "(implies --telemetry)")
    parser.add_argument("--telemetry-format", choices=("prom", "jsonl"),
                        default="prom",
                        help="telemetry output format: Prometheus text "
                             "exposition or a JSONL snapshot")
    _add_registry_args(parser)


def _add_registry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--registry", action="store_true", dest="registry",
                        default=None,
                        help="record this run in the run registry "
                             "(default: on; STONNE_REGISTRY=0 disables)")
    parser.add_argument("--no-registry", action="store_false", dest="registry",
                        help="do not record this run in the run registry")
    parser.add_argument("--registry-dir", metavar="DIR", default=None,
                        help="registry location (default ~/.stonne_runs, "
                             "or $STONNE_RUNS_DIR)")


def _parse_ints(text: str, what: str) -> List[int]:
    """Parse a comma-separated integer list typed on the command line."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise StonneError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


def _parse_tile(text: Optional[str]) -> Optional[TileConfig]:
    """Parse ``T_R,T_S,T_C,T_G,T_K,T_N,T_X,T_Y`` (paper tile notation)."""
    if not text:
        return None
    values = _parse_ints(text, "--tile")
    if len(values) != 8:
        raise StonneError(
            "tile must have 8 comma-separated values: T_R,T_S,T_C,T_G,T_K,T_N,T_X,T_Y"
        )
    keys = ("t_r", "t_s", "t_c", "t_g", "t_k", "t_n", "t_x", "t_y")
    return TileConfig(**dict(zip(keys, values)))


def _telemetry_wanted(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "telemetry_out", None)
    )


def _start_telemetry(args: argparse.Namespace) -> None:
    if _telemetry_wanted(args):
        from repro.observability.telemetry import enable_telemetry

        enable_telemetry(True)


def _finish_telemetry(args: argparse.Namespace) -> None:
    """Emit the collected telemetry (stderr, or --telemetry-out)."""
    if not _telemetry_wanted(args):
        return
    from repro.observability.telemetry import (
        telemetry,
        to_prometheus,
        write_telemetry,
    )

    out = getattr(args, "telemetry_out", None)
    if out:
        try:
            write_telemetry(telemetry(), out, format=args.telemetry_format)
        except OSError as exc:
            raise StonneError(f"cannot write telemetry to {out}: {exc}")
        print(f"telemetry written to {out}", file=sys.stderr)
    else:
        print(to_prometheus(telemetry()), file=sys.stderr, end="")


def _make_observability(args: argparse.Namespace) -> Observability:
    """Build the observability context the run flags ask for."""
    metrics_every = args.metrics_every
    if args.metrics and not metrics_every:
        metrics_every = 64
    if metrics_every < 0:
        raise StonneError("--metrics-every must be >= 0")
    _start_telemetry(args)
    return Observability.create(
        trace=bool(args.trace),
        metrics_every=metrics_every,
        stalls=bool(getattr(args, "stalls", False)),
        fabric=bool(getattr(args, "fabric", False)),
    )


def _print_profile(
    obs: Observability,
    wall_clock_s: float,
    stage_seconds: Optional[Dict[str, float]],
) -> None:
    """``--profile``: one row per layer, a total against the run's wall
    clock, and the runner's stage line when it ran."""
    rows = obs.host_time
    width = max([len("layer")] + [len(row.name) for row in rows])
    print(f"{'layer':<{width}s}  {'kind':<8s} {'cycles':>12s} "
          f"{'host ms':>10s}  mode", file=sys.stderr)
    total = 0.0
    for row in rows:
        host = "-"
        if row.seconds is not None:
            host = f"{row.seconds * 1e3:.3f}"
            total += row.seconds
        print(f"{row.name:<{width}s}  {row.kind:<8s} {row.cycles:>12d} "
              f"{host:>10s}  {row.mode}", file=sys.stderr)
    print(f"{'total':<{width}s}  {'':<8s} {'':>12s} {total * 1e3:>10.3f}  "
          f"of {wall_clock_s * 1e3:.3f} ms wall clock", file=sys.stderr)
    if stage_seconds:
        print("stages: " + ", ".join(
            f"{stage} {seconds * 1e3:.3f} ms"
            for stage, seconds in stage_seconds.items()
        ), file=sys.stderr)


def _finish_observability(
    acc: Accelerator,
    args: argparse.Namespace,
    wall_clock_s: float,
    stage_seconds: Optional[Dict[str, float]] = None,
) -> None:
    """Export the traces/metrics/profile an instrumented run collected."""
    obs = acc.obs
    acc.report.metadata["seed"] = args.seed
    if args.trace:
        try:
            if args.trace_format == "jsonl":
                obs.tracer.to_jsonl(args.trace)
            else:
                obs.tracer.to_chrome(args.trace,
                                     metadata=dict(acc.report.metadata))
        except OSError as exc:
            raise StonneError(f"cannot write trace to {args.trace}: {exc}")
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics and obs.metrics is not None:
        try:
            if args.metrics_format == "json":
                obs.metrics.to_json(args.metrics)
            else:
                obs.metrics.to_csv(args.metrics)
        except OSError as exc:
            raise StonneError(f"cannot write metrics to {args.metrics}: {exc}")
        print(f"metrics written to {args.metrics} "
              f"({len(obs.metrics)} samples, every "
              f"{obs.metrics.every} cycles)", file=sys.stderr)
    if args.profile:
        _print_profile(obs, wall_clock_s, stage_seconds)
    _finish_telemetry(args)


def _registry_wanted(args: argparse.Namespace) -> bool:
    from repro.observability.registry import registry_enabled

    if args.registry is not None:
        return args.registry
    return registry_enabled(default=True)


def _finish_registry(
    acc: Accelerator,
    args: argparse.Namespace,
    workload: str,
    wall_clock_s: Optional[float] = None,
    cached: bool = False,
) -> None:
    """Append the finished run to the registry (CLI default: on).

    Registration is best-effort: a broken registry store warns and never
    fails a run whose simulation already succeeded.
    """
    if not _registry_wanted(args):
        return
    from repro.observability.registry import RunRegistry

    metrics = acc.obs.metrics
    try:
        with RunRegistry(args.registry_dir) as registry:
            run_id = registry.record_report(
                acc.report,
                workload=workload,
                source=f"cli:{args.command}",
                wall_clock_s=wall_clock_s,
                cached=cached,
                metrics=metrics.summary() if metrics is not None else None,
            )
        print(f"run registered as {run_id}", file=sys.stderr)
    except (sqlite3.Error, OSError) as exc:
        print(f"warning: run not registered: {exc}", file=sys.stderr)


def _report(acc: Accelerator, as_json: bool) -> None:
    if as_json:
        print(acc.report.to_json())
        return
    summary = acc.report.as_dict()
    energy = summary["energy_uj"]
    print(f"accelerator      : {summary['accelerator']}")
    print(f"total cycles     : {summary['total_cycles']}")
    print(f"total MACs       : {summary['total_macs']}")
    print(f"runtime (us)     : {summary['runtime_us']:.3f}")
    print(f"energy (uJ)      : {energy['total']:.4f}  {energy['by_group']}")
    print(f"area (um^2)      : {summary['area_um2']['total']:.0f}")


def _cmd_conv(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    acc = Accelerator(_build_config(args), observability=_make_observability(args))
    weights = rng.standard_normal(
        (args.K * args.G, args.C, args.R, args.S)
    ).astype(np.float32)
    activations = rng.standard_normal(
        (args.N, args.C * args.G, args.X, args.Y)
    ).astype(np.float32)
    started = time.perf_counter()
    acc.run_conv(
        weights, activations, stride=args.strides, groups=args.G,
        tile=_parse_tile(args.tile), name="cli-conv",
    )
    wall = time.perf_counter() - started
    _finish_observability(acc, args, wall)
    _finish_registry(
        acc, args,
        workload=(f"conv:{args.R}x{args.S}x{args.C}x{args.K}g{args.G}"
                  f"n{args.N}x{args.X}x{args.Y}s{args.strides}"),
        wall_clock_s=wall,
    )
    _report(acc, args.json)
    return 0


def _cmd_gemm(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    acc = Accelerator(_build_config(args), observability=_make_observability(args))
    a = rng.standard_normal((args.M, args.K)).astype(np.float32)
    b = rng.standard_normal((args.K, args.N)).astype(np.float32)
    if args.sparsity:
        from repro.analytical.sigma_model import uniform_sparse_matrix

        a = uniform_sparse_matrix(args.M, args.K, args.sparsity, seed=args.seed)
    started = time.perf_counter()
    if acc.sparse_controller is not None:
        acc.run_spmm(a, b, name="cli-spmm")
    else:
        acc.run_gemm(a, b, name="cli-gemm")
    wall = time.perf_counter() - started
    _finish_observability(acc, args, wall)
    _finish_registry(
        acc, args,
        workload=f"gemm:{args.M}x{args.N}x{args.K}s{args.sparsity:g}",
        wall_clock_s=wall,
    )
    _report(acc, args.json)
    return 0


def _make_progress(args: argparse.Namespace, config: HardwareConfig):
    """Build the ProgressEmitter the model-run flags ask for, or None."""
    live = bool(getattr(args, "live", False))
    jsonl = getattr(args, "progress_jsonl", None)
    if not live and not jsonl:
        return None
    from repro.observability.provenance import config_hash
    from repro.observability.telemetry import EtaEstimator, ProgressEmitter

    workload = f"model:{args.name}:b{args.batch}"
    eta = EtaEstimator.from_registry(
        args.registry_dir, workload, config_hash(config)
    )
    return ProgressEmitter(
        workload, total=0, stream=sys.stderr, live=live,
        jsonl_path=jsonl, eta=eta,
    )


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.frontend.models import build_model, model_input
    from repro.frontend.simulated import (
        detach_context,
        simulate,
        simulate_parallel,
    )

    if args.jobs < 0:
        raise StonneError("--jobs must be >= 0 (0 = one per CPU)")
    model = build_model(args.name, seed=args.seed, prune=not args.dense)
    x = model_input(args.name, batch=args.batch, seed=args.seed + 1)
    acc = Accelerator(_build_config(args), observability=_make_observability(args))
    progress = _make_progress(args, acc.config)
    cached_run = False
    stage_seconds = None
    started = time.perf_counter()
    # --live routes through the parallel runner even at jobs=1: it is
    # the surface that reports per-layer completion, and the
    # differential suite pins it byte-identical to the classic path
    if args.jobs != 1 or args.cache or progress is not None:
        from repro.parallel import SimCache

        cache = SimCache(args.cache) if args.cache else None
        result = simulate_parallel(
            model, acc, x, jobs=args.jobs or None, cache=cache,
            progress=progress,
        )
        cached_run = result.layers > 0 and result.simulated == 0
        stage_seconds = result.stage_seconds
        print(
            f"parallel run: {result.layers} layers, "
            f"{result.simulated} simulated, {result.cache_hits} cache hits, "
            f"{result.deduplicated} deduplicated, "
            f"{result.fallbacks} fallbacks",
            file=sys.stderr,
        )
    else:
        simulate(model, acc)
        model(x)
        detach_context(model)
    wall = time.perf_counter() - started
    _finish_observability(acc, args, wall, stage_seconds)
    _finish_registry(
        acc, args,
        workload=f"model:{args.name}:b{args.batch}",
        wall_clock_s=wall,
        cached=cached_run,
    )
    _report(acc, args.json)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import fig1, fig5, fig6, fig7, fig9, tablev
    from repro.experiments.runner import format_table, record_experiment

    name = args.which
    started = time.perf_counter()
    if name == "fig1a":
        rows = fig1.run_fig1a()
        print(format_table(rows))
    elif name == "fig1b":
        rows = fig1.run_fig1b()
        print(format_table(rows))
    elif name == "fig1c":
        rows = fig1.run_fig1c()
        print(format_table(rows))
    elif name == "tablev":
        rows = tablev.run_tablev()
        print(format_table(rows))
    elif name == "fig5":
        rows = fig5.run_fig5()
        print(format_table(rows, ["model", "arch", "cycles", "energy_total_uj"]))
        print(json.dumps(fig5.summarize_speedups(rows), indent=2))
    elif name == "fig5c":
        rows = fig5.run_fig5c()
        print(format_table(rows))
    elif name == "fig6":
        rows = fig6.run_fig6()
        print(format_table(rows))
    elif name == "fig7a":
        rows = fig7.run_fig7a()
        print(format_table(rows))
    elif name == "fig9":
        rows = fig9.run_fig9()
        print(format_table(rows, [
            "model", "policy", "cycles", "normalized_runtime", "normalized_energy",
        ]))
    elif name == "fig9c":
        rows = fig9.run_fig9c()
        print(format_table(rows, [
            "label", "layer", "normalized_runtime", "normalized_energy",
        ]))
    else:  # pragma: no cover - argparse restricts choices
        raise StonneError(f"unknown experiment {name!r}")
    wall = time.perf_counter() - started
    if _registry_wanted(args):
        try:
            run_id = record_experiment(
                name, rows, registry=args.registry_dir,
                wall_clock_s=wall, source="cli:experiment",
            )
            print(f"run registered as {run_id}", file=sys.stderr)
        except (sqlite3.Error, OSError) as exc:
            print(f"warning: run not registered: {exc}", file=sys.stderr)
    return 0


def _cmd_mkconfig(args: argparse.Namespace) -> int:
    config = _build_config(args)
    save_config(config, args.path)
    print(f"wrote {args.arch} preset to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonne",
        description="STONNE reproduction: cycle-level DNN accelerator simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("conv", help="simulate one convolution with random tensors")
    for flag, default in (("-R", 3), ("-S", 3), ("-C", 6), ("-K", 6),
                          ("-G", 1), ("-N", 1), ("-X", 7), ("-Y", 7)):
        conv.add_argument(flag, type=int, default=default)
    conv.add_argument("--strides", type=int, default=1)
    conv.add_argument("--tile", help="T_R,T_S,T_C,T_G,T_K,T_N,T_X,T_Y")
    _add_hw_args(conv)
    conv.set_defaults(func=_cmd_conv)

    gemm = sub.add_parser("gemm", help="simulate one (Sp)GEMM with random tensors")
    gemm.add_argument("-M", type=int, default=64)
    gemm.add_argument("-N", type=int, default=64)
    gemm.add_argument("-K", type=int, default=64)
    gemm.add_argument("--sparsity", type=float, default=0.0,
                      help="stationary-operand sparsity in [0, 1)")
    _add_hw_args(gemm)
    gemm.set_defaults(func=_cmd_gemm)

    spmm = sub.add_parser("spmm", help="alias of gemm with --arch sigma")
    spmm.add_argument("-M", type=int, default=64)
    spmm.add_argument("-N", type=int, default=64)
    spmm.add_argument("-K", type=int, default=64)
    spmm.add_argument("--sparsity", type=float, default=0.8)
    _add_hw_args(spmm)
    spmm.set_defaults(func=_cmd_gemm, arch="sigma")

    model = sub.add_parser("model", help="full-model simulation of a Table I model")
    model.add_argument("name", choices=(
        "mobilenets", "squeezenet", "alexnet", "resnet50", "vgg16",
        "ssd-mobilenets", "bert",
    ))
    model.add_argument("--batch", type=int, default=1)
    model.add_argument("--dense", action="store_true", help="skip weight pruning")
    model.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="time layers across N worker processes "
                            "(0 = one per CPU, 1 = classic serial run)")
    model.add_argument("--cache", metavar="DIR",
                       help="persist/reuse per-layer simulation results "
                            "in DIR (dense layers only)")
    model.add_argument("--live", action="store_true",
                       help="stream per-layer progress with an ETA from "
                            "registry history (plain lines when stderr "
                            "is not a TTY)")
    model.add_argument("--progress-jsonl", metavar="PATH", default=None,
                       help="also write progress events as JSONL to PATH")
    _add_hw_args(model)
    model.set_defaults(func=_cmd_model)

    experiment = sub.add_parser("experiment", help="regenerate a paper figure/table")
    experiment.add_argument("which", choices=(
        "fig1a", "fig1b", "fig1c", "tablev", "fig5", "fig5c", "fig6",
        "fig7a", "fig9", "fig9c",
    ))
    _add_registry_args(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    insight = sub.add_parser(
        "insight",
        help="cross-run analysis: list/diff/check/report over the registry",
        add_help=False,
    )
    insight.add_argument("insight_args", nargs=argparse.REMAINDER)
    insight.set_defaults(func=_cmd_insight)

    lint = sub.add_parser(
        "lint",
        help="static-analysis passes enforcing simulator invariants",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="dual-run perturbation harness: prove a simulation is "
             "hash- and submission-order independent",
        add_help=False,
    )
    sanitize.add_argument("sanitize_args", nargs=argparse.REMAINDER)
    sanitize.set_defaults(func=_cmd_sanitize)

    mkconfig = sub.add_parser("mkconfig", help="write a preset hardware .cfg file")
    mkconfig.add_argument("path")
    _add_hw_args(mkconfig)
    mkconfig.set_defaults(func=_cmd_mkconfig)

    interactive = sub.add_parser(
        "interactive", help="the STONNE User Interface prompt"
    )
    interactive.add_argument("--seed", type=int, default=0)
    interactive.set_defaults(func=_cmd_interactive)

    validate = sub.add_parser(
        "validate",
        help="run the Table V timing validation and a functional spot check",
    )
    validate.add_argument("--model", default="squeezenet",
                          help="model for the functional spot check")
    validate.set_defaults(func=_cmd_validate)

    sweep = sub.add_parser(
        "sweep",
        help="design-space exploration of one layer across hardware points",
    )
    sweep.add_argument("-R", type=int, default=3)
    sweep.add_argument("-S", type=int, default=3)
    sweep.add_argument("-C", type=int, default=16)
    sweep.add_argument("-K", type=int, default=16)
    sweep.add_argument("-X", type=int, default=18)
    sweep.add_argument("-Y", type=int, default=18)
    sweep.add_argument(
        "--architectures", default="tpu,maeri,sigma",
        help="comma-separated templates (tpu, maeri, sigma, eyeriss)",
    )
    sweep.add_argument("--sizes", default="64,256",
                       help="comma-separated fabric sizes")
    sweep.add_argument("--pareto", action="store_true",
                       help="also print the cycles-vs-energy Pareto front")
    sweep.set_defaults(func=_cmd_sweep)

    energy = sub.add_parser(
        "energy",
        help="price a counter file with the table-based energy model",
    )
    energy.add_argument("counter_file")
    energy.add_argument("--technology-nm", type=int, default=28)
    energy.add_argument(
        "--dtype", choices=("fp8", "int8", "fp16", "fp32"), default="fp8"
    )
    energy.set_defaults(func=_cmd_energy)

    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    """The paper's Section V, as one command: timing + functional."""
    import numpy as np

    from repro.experiments.runner import format_table
    from repro.experiments.tablev import run_tablev
    from repro.frontend.models import build_model, model_input
    from repro.frontend.simulated import detach_context, simulate

    rows = run_tablev()
    print(format_table(rows, [
        "design", "layer", "rtl_cycles", "repro_cycles", "error_vs_rtl_pct",
    ]))
    errors = [r["error_vs_rtl_pct"] for r in rows]
    print(f"\ntiming: average error vs RTL = {np.mean(errors):.2f}% "
          "(paper's own STONNE: 1.53%)")

    model = build_model(args.model, seed=0)
    x = model_input(args.model, batch=1, seed=1)
    native = model(x)
    failures = 0
    for arch in ("tpu", "maeri", "sigma"):
        acc = Accelerator(_build_config(
            argparse.Namespace(arch=arch, num_ms=256,
                               bw=128 if arch != "tpu" else 0, config=None)
        ))
        simulate(model, acc)
        simulated = model(x)
        detach_context(model)
        ok = np.allclose(simulated, native, atol=1e-2, rtol=1e-3)
        failures += 0 if ok else 1
        print(f"functional: {args.model} on {arch:5s} -> "
              f"{'MATCH' if ok else 'MISMATCH'} "
              f"({acc.report.total_cycles} cycles)")
    if failures:
        raise StonneError(f"{failures} functional mismatches")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.config import ConvLayerSpec
    from repro.experiments.dse import as_rows, pareto_front, sweep
    from repro.experiments.runner import format_table

    layer = ConvLayerSpec(
        r=args.R, s=args.S, c=args.C, k=args.K, x=args.X, y=args.Y,
        name="cli-sweep",
    )
    points = sweep(
        layer,
        architectures=tuple(a.strip() for a in args.architectures.split(",")),
        sizes=tuple(_parse_ints(args.sizes, "--sizes")),
    )
    print(format_table(as_rows(points)))
    if args.pareto:
        print("\ncycles-vs-energy Pareto front:")
        print(format_table(as_rows(pareto_front(points))))
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    """The paper's output-module script: counter file -> consumed energy."""
    from pathlib import Path

    from repro.config.hardware import DataType
    from repro.engine.energy import EnergyTable, energy_report
    from repro.engine.stats import parse_counter_file

    path = Path(args.counter_file)
    if not path.exists():
        raise StonneError(f"counter file not found: {path}")
    counters = parse_counter_file(path.read_text(encoding="utf-8"))
    dtype = next(d for d in DataType if d.value == args.dtype)
    table = EnergyTable.for_config(args.technology_nm, dtype)
    breakdown = energy_report(counters, table)
    print(f"technology       : {args.technology_nm} nm, {dtype.value}")
    for group in sorted(breakdown.by_group_uj):
        print(f"{group:16s} : {breakdown.by_group_uj[group]:.6f} uJ")
    if breakdown.dram_uj:
        print(f"{'DRAM':16s} : {breakdown.dram_uj:.6f} uJ")
    print(f"{'total':16s} : {breakdown.total_uj:.6f} uJ")
    return 0


def _cmd_insight(args: argparse.Namespace) -> int:
    """Forward ``stonne insight ...`` to the insight module's own CLI."""
    from repro.observability.insight import main as insight_main

    forwarded = list(args.insight_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return insight_main(forwarded)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Forward ``stonne lint ...`` to the analysis driver's own CLI."""
    from repro.analysis.lint import main as lint_main

    forwarded = list(args.lint_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return lint_main(forwarded)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Forward ``stonne sanitize ...`` to the harness's own CLI."""
    from repro.analysis.sanitize import main as sanitize_main

    forwarded = list(args.sanitize_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return sanitize_main(forwarded)


def _cmd_interactive(args: argparse.Namespace) -> int:
    from repro.ui.interactive import run_interactive

    return run_interactive(seed=args.seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER does not capture leading option strings
    # (bpo-17050), so the insight passthrough is dispatched up front
    if argv and argv[0] == "insight":
        from repro.observability.insight import main as insight_main

        return insight_main(list(argv[1:]))
    if argv and argv[0] == "lint":
        from repro.analysis.lint import main as lint_main

        return lint_main(list(argv[1:]))
    if argv and argv[0] == "sanitize":
        from repro.analysis.sanitize import main as sanitize_main

        return sanitize_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StonneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
