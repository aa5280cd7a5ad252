"""``stonne sanitize``: dual-run perturbation harness.

The static passes prove order-independence properties about the *code*;
this harness proves them about an actual *run*. It simulates the same
model twice in two subprocesses:

- the **reference** child: ``PYTHONHASHSEED=0``, layers timed in
  framework submission order;
- the **perturbed** child: an adversarial hash seed (string hashing —
  and therefore any accidental set/dict hash ordering — is reseeded),
  the recorded worklist reversed and then shuffled by a seeded RNG
  before timing.

Each child re-assembles its per-layer payloads into submission order,
validates the stall-conservation invariant per *window* of layers while
the run is still in flight (instead of only at finalize), and writes a
canonical JSON document. The parent byte-compares the two documents:
any difference — a counter, a float's last bit, a payload key — means
some timing path depends on hash or submission order, and the harness
names the first layer and key that diverged.

``--mutant float-order`` stamps a deliberately order-sensitive float
checksum (folded over layers in *timing* order) into the document — the
seeded mutant CI and the tests use to prove the harness actually fails
when order leaks into results.

Exit status: 0 clean, 1 divergence, 2 execution/conservation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: adversarial hash seed for the perturbed child (any value != the
#: reference's 0 works; fixed so runs are reproducible)
PERTURBED_HASH_SEED = 4242

#: worklist shuffle seed (applied after reversal)
PERTURB_ORDER_SEED = 1729

#: layers per in-flight conservation window
DEFAULT_WINDOW = 4


# ----------------------------------------------------------------------
# child: simulate once under one ordering regime
# ----------------------------------------------------------------------
def _child_run(args: argparse.Namespace) -> int:
    from repro.config import maeri_like, sigma_like, tpu_like
    from repro.frontend.models.zoo import build_model, model_input
    from repro.observability.stalls import merge_ledgers, validate_ledger
    from repro.parallel.runner import _simulate_workload
    from repro.parallel.workload import record_model

    presets = {"tpu": tpu_like, "maeri": maeri_like, "sigma": sigma_like}
    builder = presets[args.arch]
    if args.arch == "tpu":
        kwargs = {"num_pes": args.num_ms}
        if args.bw:
            kwargs["bandwidth"] = args.bw
    else:
        kwargs = {
            "num_ms": args.num_ms,
            "bandwidth": args.bw or max(1, args.num_ms // 2),
        }
    config = builder(**kwargs)
    model = build_model(args.model, seed=0, prune=True)
    x = model_input(args.model, batch=1, seed=1)
    _, workloads = record_model(model, x, config)

    order = list(workloads)
    if args.perturb:
        order.reverse()
        random.Random(args.perturb).shuffle(order)

    rows: List[Optional[Dict]] = [None] * len(workloads)
    window: List[Tuple[int, Dict]] = []
    violations: List[str] = []
    windows = 0

    def flush_window() -> None:
        nonlocal windows
        if not window:
            return
        windows += 1
        for index, payload in window:
            stalls = payload.get("extra", {}).get("stalls")
            if not stalls:
                violations.append(f"layer {index}: no stall ledger")
                continue
            for problem in validate_ledger(stalls, int(payload["cycles"])):
                violations.append(f"layer {index}: {problem}")
        # windowed aggregate: each component's merged buckets must sum
        # to the cycles of exactly the layers that charged it (a layer
        # does not charge every component, so the merge is per-component)
        ledgers = [
            (p.get("extra", {}).get("stalls") or {}, int(p["cycles"]))
            for _, p in window
        ]
        merged = merge_ledgers([stalls for stalls, _ in ledgers if stalls])
        for component, buckets in sorted(merged.items()):
            expected = sum(
                cycles for stalls, cycles in ledgers if component in stalls
            )
            for problem in validate_ledger({component: buckets}, expected):
                violations.append(f"window {windows}: merged {problem}")
        window.clear()

    checksum = 0.0
    names = set()
    for workload in order:
        bundle = _simulate_workload(config, workload, {"stalls": True})
        payload = bundle["layer"]
        rows[workload.index] = payload
        window.append((workload.index, payload))
        if len(window) >= args.window:
            flush_window()
        if args.mutant == "float-order":
            # deliberately order-sensitive fold: (a*k+x)*k+y != (b*k+y)*k+x
            checksum = checksum * (1.0 + 2.0 ** -20) + float(
                payload["multiplier_utilization"]
            )
            names.add(str(payload["name"]))
    flush_window()

    document: Dict = {
        "model": args.model,
        "arch": args.arch,
        "num_ms": args.num_ms,
        "layers": rows,
        "totals": {
            "cycles": sum(int(r["cycles"]) for r in rows if r),
            "macs": sum(int(r["macs"]) for r in rows if r),
        },
        "conservation": {"windows": windows, "violations": violations},
    }
    if args.mutant == "float-order":
        for name in names:
            checksum = checksum * (1.0 + 2.0 ** -20) + float(len(name))
        document["checksum"] = checksum
    text = json.dumps(document, indent=1)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    if violations:
        for problem in violations:
            print(f"conservation: {problem}", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# parent: spawn reference + perturbed children, byte-compare
# ----------------------------------------------------------------------
def _spawn(
    args: argparse.Namespace, model: str, out: Path, perturb: int,
    hash_seed: int,
) -> subprocess.CompletedProcess:
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "repro.analysis.sanitize", "--child",
        "--model", model, "--arch", args.arch,
        "--num-ms", str(args.num_ms), "--bw", str(args.bw),
        "--window", str(args.window),
        "--perturb", str(perturb),
        "--mutant", args.mutant,
        "--out", str(out),
    ]
    return subprocess.run(command, env=env, capture_output=True, text=True)


def _first_divergence(
    reference: Dict, perturbed: Dict
) -> str:
    ref_layers = reference.get("layers", [])
    per_layers = perturbed.get("layers", [])
    if len(ref_layers) != len(per_layers):
        return (
            f"layer count differs: {len(ref_layers)} vs {len(per_layers)}"
        )
    for index, (ref, per) in enumerate(zip(ref_layers, per_layers)):
        if ref == per:
            continue
        keys = sorted(set(ref) | set(per))
        for key in keys:
            if ref.get(key) != per.get(key):
                return (
                    f"layer {index} ({ref.get('name')}): key {key!r} "
                    f"differs: {ref.get(key)!r} vs {per.get(key)!r}"
                )
    for key in sorted(set(reference) | set(perturbed)):
        if key != "layers" and reference.get(key) != perturbed.get(key):
            return (
                f"document key {key!r} differs: {reference.get(key)!r} "
                f"vs {perturbed.get(key)!r}"
            )
    return "documents differ (non-layer content)"


def _sanitize_model(
    args: argparse.Namespace, model: str, scratch: Path
) -> Dict:
    ref_out = scratch / f"{model}-reference.json"
    per_out = scratch / f"{model}-perturbed.json"
    result: Dict = {"model": model, "arch": args.arch}
    reference = _spawn(args, model, ref_out, perturb=0, hash_seed=0)
    perturbed = _spawn(
        args, model, per_out,
        perturb=args.order_seed, hash_seed=args.hash_seed,
    )
    for label, proc in (("reference", reference), ("perturbed", perturbed)):
        if proc.returncode != 0:
            result["status"] = "error"
            result["detail"] = (
                f"{label} child exited {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
            return result
    ref_bytes = ref_out.read_bytes()
    per_bytes = per_out.read_bytes()
    ref_doc = json.loads(ref_bytes)
    result["layers"] = len(ref_doc.get("layers", []))
    result["windows"] = ref_doc["conservation"]["windows"]
    if ref_bytes == per_bytes:
        result["status"] = "ok"
        return result
    result["status"] = "divergence"
    result["detail"] = _first_divergence(ref_doc, json.loads(per_bytes))
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stonne sanitize",
        description=(
            "prove a simulation is hash- and submission-order "
            "independent by byte-comparing a reference run against an "
            "adversarially perturbed one"
        ),
    )
    parser.add_argument(
        "--model", default="squeezenet",
        help="comma-separated zoo model name(s) to sweep",
    )
    parser.add_argument(
        "--arch", choices=("tpu", "maeri", "sigma"), default="tpu",
    )
    parser.add_argument("--num-ms", type=int, default=16)
    parser.add_argument("--bw", type=int, default=0)
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW,
        help="layers per in-flight conservation window",
    )
    parser.add_argument(
        "--hash-seed", type=int, default=PERTURBED_HASH_SEED,
        help="PYTHONHASHSEED for the perturbed child",
    )
    parser.add_argument(
        "--order-seed", type=int, default=PERTURB_ORDER_SEED,
        help="seed for the perturbed child's worklist shuffle",
    )
    parser.add_argument(
        "--mutant", choices=("off", "float-order"), default="off",
        help="seed a deliberate order-dependence (harness self-test)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the machine-readable verdict JSON to PATH",
    )
    parser.add_argument(
        "--keep-dir", default=None, metavar="DIR",
        help="keep the per-child payload documents under DIR",
    )
    # child-mode internals
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturb", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.child:
        args.model = args.model.split(",")[0]
        return _child_run(args)

    models = [m.strip() for m in args.model.split(",") if m.strip()]
    if args.keep_dir:
        scratch = Path(args.keep_dir)
        scratch.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="stonne-sanitize-")
        scratch = Path(cleanup.name)
    try:
        results = [_sanitize_model(args, model, scratch) for model in models]
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    worst = 0
    for result in results:
        status = result["status"]
        if status == "ok":
            print(
                f"OK: {result['model']} x {args.arch}: reference and "
                f"perturbed payloads byte-identical "
                f"({result['layers']} layers, {result['windows']} "
                "conservation windows)"
            )
        elif status == "divergence":
            print(
                f"FAIL: {result['model']} x {args.arch}: "
                f"{result['detail']}"
            )
            worst = max(worst, 1)
        else:
            print(
                f"ERROR: {result['model']} x {args.arch}: "
                f"{result['detail']}"
            )
            worst = max(worst, 2)
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"tool": "stonne-sanitize", "results": results}, indent=2
            ) + "\n",
            encoding="utf-8",
        )
    return worst


if __name__ == "__main__":
    sys.exit(main())
