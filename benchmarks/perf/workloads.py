"""The seven workloads: what a cell is, how a pass runs, what is verified.

A *cell* is one model on one hardware point (what ``stonne model ...``
does); a *pass* is every cell of the workload once; a timed *run* is
``passes`` passes. For ``tablev_fidelity`` a cell is one ``run_tablev()``
call. The program only ever receives tensors generated from ``--seed``.
"""

import contextlib
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.config import EngineMode, maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.experiments.tablev import MAERI_TILE, VALIDATION_CASES, run_tablev
from repro.frontend.layers import Conv2d, Linear
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.observability import Observability
from repro.observability.fabric import validate_fabric
from repro.observability.stalls import validate_ledger
from repro.parallel import SimCache, record_model

#: ISSUE sized the sweeps at batch 8 and 4-8 s runs; the driver's budget
#: (158 invocations in 3420 s) caps an invocation near 20 s, and one
#: batch-8 ``dense_cycle`` pass alone is 4.5 s. At batch 2 a pass fits in
#: ~0.3-1.2 s, but per-layer fixed costs weigh more than at batch 8: the
#: ``why`` strings below say what the traced pass shows at this batch.
BATCH = 2
SMOKE_BATCH = 1

#: tolerance of tests/integration for simulated-vs-native model outputs
OUTPUT_ATOL = 1e-2
OUTPUT_RTOL = 1e-3


def _dense_points():
    return (
        ("tpu16", tpu_like(num_pes=16)),
        ("tpu256", tpu_like(num_pes=256)),
        ("maeri64", maeri_like(num_ms=64, bandwidth=32)),
        ("maeri256", maeri_like(num_ms=256, bandwidth=128)),
    )


def _sigma_points():
    return (
        ("sigma64", sigma_like(num_ms=64, bandwidth=32)),
        ("sigma256", sigma_like(num_ms=256, bandwidth=128)),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: serial = simulate(); parallel = simulate_parallel(); tablev =
    #: run_tablev()
    path: str
    points: str = ""                        # dense | sigma | "" (tablev)
    engine_mode: Optional[EngineMode] = None
    #: passes per timed run, sized to ~1 s per run at BATCH on the
    #: 2-core reference host (the one table ISSUE asks for)
    passes: int = 1
    #: cells between calibration slices (~50 ms of timed work)
    cal_stride: int = 1
    #: weight of the slice's BLAS part in this workload's slowdown (the
    #: Python part has the rest): 0.75 tracks the host best on every
    #: single-process sweep; the pool workload, all pickling and
    #: allocation, follows the Python part alone (README.md has the table)
    blas_share: float = 0.75
    lenses: bool = False
    jobs: int = 1
    warm_cache: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "dense_cycle",
        "cycle-stepped systolic walk and dense controller dominate: where "
        "one-timing-model work must show and frontend work barely moves",
        path="serial", points="dense", engine_mode=EngineMode.CYCLE,
        passes=1, cal_stride=1,
    ),
    Workload(
        "dense_vector",
        "closed-form engine timing: per-layer work inside Accelerator.run_* "
        "is what is left, a third of it the functional im2col + GEMM that "
        "frontend work can remove; bypass for cycle-walk changes",
        path="serial", points="dense", engine_mode=EngineMode.VECTOR,
        passes=3, cal_stride=4,
    ),
    Workload(
        "sparse_sigma",
        "sparse controller, Benes/FAN and tensor compression, "
        "data-dependent and uncacheable: catches dense-path gains that "
        "cost the sparse path",
        path="serial", points="sigma", passes=1, cal_stride=1,
    ),
    Workload(
        "cache_cold",
        "parallel runner on an empty cache: keying, dedup, task pickling, "
        "pool dispatch and cache writes dominate",
        path="parallel", points="dense", engine_mode=EngineMode.VECTOR,
        passes=1, cal_stride=2, blas_share=0.0, jobs=2,
    ),
    Workload(
        "cache_warm",
        "parallel runner on a populated cache: the record pass (frontend "
        "forward) is two thirds, key + cache reads + merge the rest, the "
        "engine does nothing; the reads-beside-writes check on SimCache",
        path="parallel", points="dense", engine_mode=EngineMode.VECTOR,
        passes=4, cal_stride=8, warm_cache=True,
    ),
    Workload(
        "lenses_on",
        "trace + stalls + fabric lenses on the dense cells: they triple the "
        "pass, a third of it inside the lens objects and the rest engine "
        "code only they cause; lens unification must show here only",
        path="serial", points="dense", engine_mode=EngineMode.VECTOR,
        passes=1, cal_stride=2, lenses=True,
    ),
    Workload(
        "tablev_fidelity",
        "direct controller/engine calls of the eleven Table V rows: no "
        "frontend, parallel or lenses; carries the fidelity metrics",
        path="tablev", passes=20, cal_stride=2,
    ),
)}


@dataclass
class Cell:
    cell_id: str
    model: object = None
    x: Optional[np.ndarray] = None
    config: object = None
    tiles: Optional[dict] = None


@dataclass
class CellResult:
    cycles: int
    output: Optional[np.ndarray] = None
    report: object = None
    obs: object = None
    #: simulated / cache_hits / deduplicated / fallbacks (parallel path)
    parallel: Optional[Dict[str, int]] = None
    rows: Optional[List[Dict]] = None


class NoSpans:
    """The untraced run's recorder: every hook is the identity."""

    _NULL = contextlib.nullcontext()
    cell = None  # the cell being run (a span attribute when tracing)

    def span(self, name):
        return self._NULL

    def accelerator(self, acc):
        return acc

    def model(self, model):
        return model

    def cache(self, cache):
        return cache

    def lenses(self, obs):
        return obs


NO_SPANS = NoSpans()


@dataclass
class State:
    """What set-up builds and every pass reuses."""

    workload: Workload
    cells: List[Cell]
    tmp_dir: str
    jobs: int = 1
    warm_dir: Optional[str] = None
    inject_fail: Optional[str] = None
    #: native (detached) outputs per model name, filled by verification
    native: Dict[str, np.ndarray] = field(default_factory=dict)


def derive_seeds(seed):
    """(weight seed, input seed) from the one ``--seed``."""
    weights, inputs = np.random.SeedSequence(seed).generate_state(2)
    return int(weights), int(inputs)


def model_cells(workload, seed, batch):
    """The workload's model x hardware-point cells."""
    weight_seed, input_seed = derive_seeds(seed)
    points = _sigma_points() if workload.points == "sigma" else _dense_points()
    cells = []
    for name in MODEL_NAMES:
        model = build_model(name, seed=weight_seed)
        x = model_input(name, batch=batch, seed=input_seed)
        for hw_name, config in points:
            if workload.engine_mode is not None:
                config = config.with_updates(engine_mode=workload.engine_mode)
            cells.append(Cell(f"{name}/{hw_name}", model, x, config))
    return cells


def tablev_row_cells():
    """The eleven Table V rows as single-layer frontend models.

    ``run_tablev`` calls controllers directly; the same rows through the
    whole stack must give the same cycles (verification), and they give
    the per-layer probes recorded layers to work on.
    """
    cells = []
    for case in VALIDATION_CASES:
        rng = np.random.default_rng(3)
        if case.design == "MAERI":
            side = int(round(case.n ** 0.5))
            model = Conv2d(case.k // 9, case.m, 3, bias=False, name=case.name,
                           rng=rng)
            x = rng.standard_normal(
                (1, case.k // 9, side + 2, side + 2)).astype(np.float32)
            config = maeri_like(num_ms=32, bandwidth=4)
            tiles = {case.name: MAERI_TILE}
        else:
            model = Linear(case.k, case.m, bias=False, name=case.name, rng=rng)
            x = rng.standard_normal((case.n, case.k)).astype(np.float32)
            config = (sigma_like(num_ms=128, bandwidth=128)
                      if case.design == "SIGMA" else tpu_like(num_pes=256))
            tiles = None
        cells.append(Cell(case.name, model, x, config, tiles))
    return cells


def set_up(workload, seed, batch, tmp_dir, nproc, inject_fail=None):
    """Everything before the first pass (the child times this call)."""
    if workload.path == "tablev":
        return State(workload, [Cell("tablev")], tmp_dir,
                     inject_fail=inject_fail)
    state = State(
        workload, model_cells(workload, seed, batch), tmp_dir,
        jobs=min(workload.jobs, nproc), inject_fail=inject_fail,
    )
    if workload.jobs > 1:
        # start the shared pool: the first parallel cell forks it
        _run_cell(state, state.cells[0], SimCache(_fresh_dir(state)))
    if workload.warm_cache:
        state.warm_dir = _fresh_dir(state)
        cache = SimCache(state.warm_dir)
        for cell in state.cells:
            _run_cell(state, cell, cache)
    return state


def _fresh_dir(state):
    return tempfile.mkdtemp(prefix="simcache-", dir=state.tmp_dir)


def pass_cache(state):
    """The SimCache one pass runs against (``None`` off the parallel
    path). Cold: a new empty directory. Warm: a new object on the
    populated directory, so every pass reads the disk, not the previous
    pass's memory layer."""
    if state.workload.path != "parallel":
        return None
    if state.workload.warm_cache:
        return SimCache(state.warm_dir)
    return SimCache(_fresh_dir(state))


def drop_pass_cache(state, cache):
    """Delete a cold pass's directory (untimed)."""
    if cache is not None and not state.workload.warm_cache:
        shutil.rmtree(cache.directory, ignore_errors=True)


def run_cell(state, cell, cache, rec=NO_SPANS):
    """One cell through the workload's path."""
    if state.inject_fail == cell.cell_id:
        raise RuntimeError(f"injected failure in cell {cell.cell_id}")
    return _run_cell(state, cell, cache, rec)


def _run_cell(state, cell, cache, rec=NO_SPANS):
    workload = state.workload
    if workload.path == "tablev":
        with rec.span("experiments.run_tablev"):
            rows = run_tablev()
        return CellResult(sum(r["repro_cycles"] for r in rows), rows=rows)
    obs = None
    if workload.lenses:
        # metrics_every is left off: it raises "observation cycle went
        # backwards" on grouped convs (see README, known src bug)
        obs = rec.lenses(
            Observability.create(trace=True, stalls=True, fabric=True))
    with rec.span("engine.construct"):
        acc = Accelerator(cell.config, observability=obs)
    if workload.path == "parallel":
        with rec.span("parallel.simulate_parallel"):
            result = simulate_parallel(
                rec.model(cell.model), acc, cell.x,
                jobs=state.jobs, cache=rec.cache(cache),
            )
        return CellResult(
            acc.report.total_cycles, result.output, acc.report, obs,
            parallel={
                "simulated": result.simulated,
                "cache_hits": result.cache_hits,
                "deduplicated": result.deduplicated,
                "fallbacks": result.fallbacks,
            },
        )
    simulate(cell.model, rec.accelerator(acc), tiles=cell.tiles)
    try:
        with rec.span("frontend.forward"):
            output = cell.model(cell.x)
    finally:
        detach_context(cell.model)
    return CellResult(acc.report.total_cycles, output, acc.report, obs)


# ----------------------------------------------------------------------
# simulated work, counted by the harness from operand shapes
# ----------------------------------------------------------------------
def dense_macs(layer_workloads):
    """Dense MACs of recorded offloaded layers (maxpool has none)."""
    total = 0
    for w in layer_workloads:
        shapes = w.shapes()
        if w.kind == "conv":
            k_total, c_g, r, s = shapes["weights"]
            n, _, x, y = shapes["inputs"]
            stride, padding = w.params["stride"], w.params["padding"]
            x_out = (x + 2 * padding - r) // stride + 1
            y_out = (y + 2 * padding - s) // stride + 1
            total += n * k_total * x_out * y_out * c_g * r * s
        elif w.kind in ("gemm", "spmm"):
            m, k = shapes["weights"]
            total += m * k * shapes["inputs"][1]
    return total


def macs_per_pass(state):
    """Dense MACs one pass of the workload offloads."""
    if state.workload.path == "tablev":
        return sum(c.m * c.n * c.k for c in VALIDATION_CASES)
    per_model = {}
    total = 0
    for cell in state.cells:
        name = cell.cell_id.split("/")[0]
        if name not in per_model:
            # shapes do not depend on the hardware point
            _, recorded = record_model(cell.model, cell.x, cell.config)
            per_model[name] = dense_macs(recorded)
        total += per_model[name]
    return total


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def verify_cell(state, cell, result):
    """Per-cell checks on one pass's full result; returns problems."""
    if state.workload.path == "tablev":
        return _verify_tablev_rows(result.rows)
    problems = []
    name = cell.cell_id.split("/")[0]
    if name not in state.native:
        state.native[name] = cell.model(cell.x)  # detached: native CPU
    if not np.allclose(result.output, state.native[name],
                       atol=OUTPUT_ATOL, rtol=OUTPUT_RTOL):
        problems.append(f"{cell.cell_id}: simulated output != native model(x)")
    if state.workload.lenses:
        traced_layers = {
            event.name[len("layer:"):] for event in result.obs.tracer.events
            if event.name.startswith("layer:")}
        for layer in result.report.layers:
            where = f"{cell.cell_id}/{layer.name}"
            problems += [
                f"{where}: {p}"
                for p in validate_ledger(layer.extra["stalls"], layer.cycles)
            ]
            problems += [
                f"{where}: {p}" for p in validate_fabric(
                    layer.extra["fabric"], layer.counters.as_dict(),
                    layer.cycles)
            ]
            if layer.name not in traced_layers:
                problems.append(f"{where}: no trace event")
    return problems


def _verify_tablev_rows(rows):
    """Direct-call rows against the same rows through the whole stack."""
    problems = []
    by_name = {row["layer"]: row["repro_cycles"] for row in rows}
    if len(by_name) != len(VALIDATION_CASES):
        problems.append(f"tablev: {len(by_name)} rows, expected 11")
    for cell in tablev_row_cells():
        cycles = _serial_cycles(cell, cell.config)
        if cycles != by_name.get(cell.cell_id):
            problems.append(
                f"tablev {cell.cell_id}: direct {by_name.get(cell.cell_id)} "
                f"!= full-stack {cycles} cycles")
    return problems


def _serial_cycles(cell, config):
    """Total cycles of the cell's model on ``config``, serial path."""
    acc = Accelerator(config)
    simulate(cell.model, acc, tiles=cell.tiles)
    try:
        cell.model(cell.x)
    finally:
        detach_context(cell.model)
    return acc.report.total_cycles


def reference_cycles(state):
    """Per-cell cycles of the serial path in the *other* engine mode.

    Every dense workload is checked against it, so the five dense
    workloads agree cell by cell (``dense_cycle`` against vector, the
    four vector-mode ones against the cycle-stepped walk).
    """
    other = (EngineMode.VECTOR
             if state.workload.engine_mode is EngineMode.CYCLE
             else EngineMode.CYCLE)
    return {
        cell.cell_id: _serial_cycles(
            cell, cell.config.with_updates(engine_mode=other))
        for cell in state.cells
    }


def verify_passes(state, warm_up, first, last, parallel_counts, reference):
    """Whole-run checks after the timed runs; returns problems.

    ``warm_up``/``first``/``last`` map cell id -> cycles of the warm-up,
    first timed and last timed pass; ``parallel_counts`` is one summed
    simulated/cache_hits/deduplicated/fallbacks dict per timed pass;
    ``reference``: also run the cells in the other engine mode (one of a
    workload's processes does, the others must give its cycles).
    """
    problems = []
    for label, cycles in (("first", first), ("last", last)):
        for cell_id, value in cycles.items():
            if warm_up.get(cell_id) != value:
                problems.append(
                    f"{cell_id}: {label} timed pass {value} cycles, "
                    f"warm-up {warm_up.get(cell_id)}")
    if reference and state.workload.points == "dense":
        for cell_id, value in reference_cycles(state).items():
            if last.get(cell_id, value) != value:
                problems.append(
                    f"{cell_id}: {last[cell_id]} cycles, other engine mode "
                    f"gives {value}")
    if state.workload.path == "parallel":
        if any(c["fallbacks"] for c in parallel_counts):
            problems.append("parallel: a layer fell back to serial")
        if any(c != parallel_counts[0] for c in parallel_counts):
            problems.append("parallel: simulated/hit/dedup counts differ "
                            "between passes")
        if state.workload.warm_cache and any(
                c["simulated"] for c in parallel_counts):
            problems.append("cache_warm: a layer was simulated")
    return problems


def tablev_errors():
    """(mean, max) ``error_vs_rtl_pct`` over the eleven Table V rows."""
    errors = [row["error_vs_rtl_pct"] for row in run_tablev()]
    return sum(errors) / len(errors), max(errors)
