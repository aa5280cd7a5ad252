"""Parallel whole-model simulation.

:class:`ParallelModelRunner` drives a model through three phases:

1. **Record** — one serial functional pass through the framework
   (:func:`~repro.parallel.workload.record_model`): real layer outputs,
   plus one :class:`~repro.parallel.workload.LayerWorkload` per offloaded
   operation.
2. **Simulate** — each distinct workload is timed exactly once:
   cache-hit results are reused, duplicate shapes are deduplicated (with
   or without a cache object), and the remaining misses are dealt onto
   ``min(misses, jobs)`` chunks, one ``concurrent.futures`` pool task
   each: what crosses the process boundary is the config and the lens
   set once per chunk plus, per layer, a shape-only
   :meth:`~repro.engine.workload.LayerWorkload.timing_view` wherever
   :func:`~repro.parallel.cache.cacheable` says values do not decide
   the timing (the workload itself otherwise). A worker times its
   layers one by one, a fresh accelerator each. Any failure to simulate
   a layer remotely falls back to in-process serial simulation of that
   layer, so a broken pool degrades to the classic path instead of
   failing the run — and is replaced before the next batch.
3. **Merge** — per-layer reports are assembled in framework execution
   order into one :class:`~repro.engine.stats.SimulationReport` that is
   byte-identical (cycles, counters, outputs) to a serial run; worker
   trace events and metrics samples are rebased onto the model timeline
   and merged into the parent observability context.

Determinism: results are keyed by workload index, so the report never
depends on worker scheduling.
"""

from __future__ import annotations

import atexit
import operator
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.hardware import HardwareConfig, load_config
from repro.engine.accelerator import Accelerator
from repro.engine.stats import LayerReport, SimulationReport
from repro.errors import ConfigurationError
from repro.observability import Observability
from repro.observability.context import TRACE_COUNTER_SERIES, LayerHostTime
from repro.observability.metrics import MetricsSample
from repro.observability.telemetry.facade import telemetry
from repro.observability.telemetry.progress import ProgressEmitter
from repro.parallel.cache import SimCache, cacheable
from repro.parallel.workload import LayerWorkload, record_model


#: what a pool worker runs — where the PAR-SAFE lint pass starts its
#: reachability walk (``repro.analysis.parsafe`` reads this literal)
WORKER_ENTRY_POINTS = (
    "_simulate_workload",
    "_simulate_workload_in_worker",
    "_simulate_chunk_in_worker",
)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _simulate_workload(
    config: HardwareConfig,
    workload: LayerWorkload,
    lenses: Optional[Dict[str, Any]] = None,
) -> Dict:
    """Time one workload on a fresh accelerator; plain-data result.

    Timing only (:meth:`Accelerator.time`): the record pass already
    produced the layer's output, so no tensor is computed here.
    ``lenses`` holds the :meth:`Observability.create` keyword arguments
    of the lens set to turn on (none by default). Runs in worker
    processes (everything crossing the boundary is picklable) and in the
    parent for the serial path and fallbacks, so every execution mode
    shares one code path. Workers never open a run registry: per-layer
    fragments are not runs — only the parent's merged report is
    registered, once, by whoever drove the model.
    """
    started = time.perf_counter()
    obs = Observability.create(**(lenses or {}))
    layer = Accelerator(config, observability=obs).time(workload)
    payload = layer.to_payload()
    # the metrics series is timeline-dependent; the parent rebuilds it
    # from the raw samples below, and the cache must never store it
    payload["extra"].pop("metrics", None)
    return {
        "layer": payload,
        "trace": obs.tracer.to_wire(),
        "metrics_samples": [
            {"cycle": s.cycle, "values": dict(s.values)}
            for s in (obs.metrics.samples if obs.metrics is not None else [])
        ],
        # host wall seconds of this one simulation; the parent keeps it
        # as the merged layer's host time and feeds it to telemetry
        # (never the cache — only "layer" is ever stored)
        "host_seconds": time.perf_counter() - started,
    }


def _simulate_workload_in_worker(
    config: HardwareConfig,
    workload: LayerWorkload,
    lenses: Optional[Dict[str, Any]],
) -> Dict:
    """One layer of a pool task (separate name so tests can fault-inject
    the remote path without touching the serial fallback)."""
    return _simulate_workload(config, workload, lenses)


def _simulate_chunk_in_worker(
    config: HardwareConfig,
    workloads: List[LayerWorkload],
    lenses: Optional[Dict[str, Any]],
) -> List[Optional[Dict]]:
    """The function submitted to the pool: one chunk of layers, timed
    one by one; a layer that raised leaves a ``None`` slot (the parent
    re-runs exactly that layer in-process) and the rest still count."""
    bundles: List[Optional[Dict]] = []
    for workload in workloads:
        try:
            bundles.append(
                _simulate_workload_in_worker(config, workload, lenses)
            )
        # stonne: lint-ok[EXC-BROAD] one layer's failure must not cost its chunk; the parent's in-process rerun of the None slot raises the real error typed
        except Exception:
            bundles.append(None)
    return bundles


def _shared_bundle(source: Dict, name: str, folds: bool) -> Dict:
    """What a layer deduplicated onto ``source``'s simulation gets: its
    payload and, where the fold rule holds (``folds``, see
    :attr:`Observability.folds_repeats`), its trace records, the layer
    span (closed last) renamed to ``name``; the merge rebases the records
    onto the layer's base. Otherwise — the metrics recorder is on, which
    keys a run only with a cache — the source's records follow the span
    with counter samples on its own cycle grid, so the layer gets no
    records and the merge gives it the one-span stub a cache hit gets."""
    bundle: Dict = {"layer": source["layer"]}
    trace = source.get("trace")
    if trace and folds:
        bundle["trace"] = trace[:-1] + [
            {**trace[-1], "name": f"layer:{name}"}
        ]
    return bundle


def _chunk_positions(count: int, jobs: int) -> List[List[int]]:
    """Deal positions ``0 .. count-1`` onto ``min(count, jobs)`` chunks.

    Position ``i`` lands in chunk ``i mod n``: neighbouring layers of a
    model are similarly sized, so round-robin keeps the chunks — one per
    worker — balanced where contiguous runs would not.
    """
    n = min(count, jobs)
    return [list(range(first, count, n)) for first in range(n)]


# ----------------------------------------------------------------------
# shared worker pools
# ----------------------------------------------------------------------
_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """A process pool with ``jobs`` workers, shared across runners.

    Pool startup dominates small runs, so pools are kept alive for the
    process lifetime (shut down at interpreter exit) — unless they break,
    see :func:`_discard_pool`."""
    pool = _POOLS.get(jobs)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        _POOLS[jobs] = pool
    return pool


def _discard_pool(executor: Any) -> None:
    """Forget a shared pool that raised ``BrokenProcessPool``.

    A ``ProcessPoolExecutor`` never recovers from a dead worker: kept in
    ``_POOLS``, it would make every later batch of the process fall back
    layer by layer. Dropped (and shut down without waiting — its workers
    are gone), the next batch starts a fresh one. An injected
    ``executor=`` is not ours to replace and is left alone.
    """
    for jobs, pool in list(_POOLS.items()):
        if pool is executor:
            del _POOLS[jobs]
            pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every shared worker pool (also runs atexit)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class ModelRunResult:
    """Output tensor + report + execution accounting of one model run."""

    output: np.ndarray
    report: SimulationReport
    layers: int
    simulated: int        # workloads actually timed (here or in workers)
    cache_hits: int
    deduplicated: int     # repeated shapes folded onto one simulation
    fallbacks: int        # workloads that fell back to serial in-process
    stage_seconds: Dict[str, float]  # host seconds: record/simulate/merge


class ParallelModelRunner:
    """Simulates a model's offloaded layers across a process pool."""

    def __init__(
        self,
        config: Union[HardwareConfig, str, Path],
        jobs: Optional[int] = 1,
        cache: Optional[SimCache] = None,
        observability: Optional[Observability] = None,
        round_builder=None,
        tiles=None,
        executor=None,
        progress: Optional[ProgressEmitter] = None,
    ) -> None:
        if not isinstance(config, HardwareConfig):
            config = load_config(config)
        self.config = config
        if jobs is None:
            jobs = os.cpu_count() or 1
        else:
            try:
                jobs = operator.index(jobs)
            except TypeError:
                raise ConfigurationError(
                    f"jobs must be an integer (or None for one per CPU), "
                    f"got {jobs!r}"
                ) from None
        #: worker processes; also the number of chunks a batch is cut into
        self.jobs = max(1, jobs)
        self.cache = cache
        self.obs = observability if observability is not None else Observability()
        self.round_builder = round_builder
        self.tiles = tiles
        self.progress = progress
        #: injection point for tests; ``None`` uses the shared pool
        self._executor = executor

    # ---- simulation of the distinct workloads -------------------------
    def _worker_lenses(self) -> Dict[str, Any]:
        """The parent's lens set as :meth:`Observability.create` keyword
        arguments — the one value that reaches every simulation."""
        obs = self.obs
        return {
            "trace": obs.tracer.enabled,
            "metrics_every": obs.metrics.every if obs.metrics is not None else 0,
            "stalls": obs.stalls is not None,
            "fabric": obs.fabric is not None,
        }

    def _task_done(
        self, workload: LayerWorkload, bundle: Dict, mode: str
    ) -> None:
        """One layer's result is in: stamp how it was obtained, feed the
        telemetry facade and the progress stream."""
        bundle["mode"] = mode
        registry = telemetry()
        registry.counter(
            "stonne_pool_tasks_total",
            "Simulation tasks by execution mode",
        ).inc(mode=mode)
        seconds = bundle.get("host_seconds")
        if isinstance(seconds, (int, float)):
            registry.histogram(
                "stonne_pool_task_seconds",
                "Host wall seconds per simulated layer task",
            ).observe(float(seconds), mode=mode)
        if self.progress is not None:
            self.progress.layer_done(
                workload.index, workload.name, workload.kind, mode
            )

    def _simulate_misses(
        self, misses: List[LayerWorkload], lenses: Dict[str, Any]
    ) -> Tuple[Dict[int, Dict], int]:
        """Time the given workloads; returns index→bundle and the number
        that fell back to serial execution."""
        results: Dict[int, Dict] = {}
        fallbacks = 0
        if self.jobs == 1 or len(misses) <= 1:
            for workload in misses:
                results[workload.index] = _simulate_workload(
                    self.config, workload, lenses
                )
                self._task_done(workload, results[workload.index], "simulated")
            return results, fallbacks

        executor = self._executor
        if executor is None:
            executor = _get_pool(self.jobs)
        registry = telemetry()
        queue_gauge = registry.gauge(
            "stonne_pool_queue_depth",
            "Simulation tasks submitted and not yet collected",
        )
        # values cross only where they decide the timing
        shipped = [
            w.timing_view() if cacheable(w, self.config) else w
            for w in misses
        ]
        chunks = _chunk_positions(len(misses), self.jobs)
        futures: List[Optional[Future]] = []
        for chunk in chunks:
            try:
                futures.append(executor.submit(
                    _simulate_chunk_in_worker,
                    self.config, [shipped[i] for i in chunk], lenses,
                ))
            except BrokenProcessPool:
                _discard_pool(executor)
                futures.append(None)
            # stonne: lint-ok[EXC-BROAD] submit fails with arbitrary types (pickling, pool state); the serial fallback below retypes real errors
            except Exception:
                futures.append(None)  # unpicklable / unusable executor
        pending = len(misses)
        queue_gauge.set(float(pending))
        batch_started = time.perf_counter()
        task_seconds: List[float] = []
        # a failed chunk leaves its layers' slots empty; collection stays
        # per layer, in `misses` order
        slots: List[Optional[Dict]] = [None] * len(misses)
        for chunk, future in zip(chunks, futures):
            arrived = self._chunk_bundles(executor, future)
            for position, bundle in zip(chunk, arrived):
                slots[position] = bundle
        for workload, bundle in zip(misses, slots):
            mode = "simulated"
            if bundle is None:
                # per-layer isolation: whatever went wrong out-of-process
                # (pool death, pickling, a worker bug), the layer still
                # simulates — serially, in-process, from the recorded
                # workload. A genuine simulation error reproduces here
                # and propagates with its real type.
                fallbacks += 1
                mode = "fallback"
                bundle = _simulate_workload(self.config, workload, lenses)
            results[workload.index] = bundle
            pending -= 1
            queue_gauge.set(float(pending))
            self._task_done(workload, bundle, mode)
            seconds = bundle.get("host_seconds")
            if isinstance(seconds, (int, float)):
                task_seconds.append(float(seconds))
        self._note_batch(task_seconds, time.perf_counter() - batch_started)
        return results, fallbacks

    @staticmethod
    def _chunk_bundles(
        executor: Any, future: Optional[Future]
    ) -> List[Optional[Dict]]:
        """One chunk's bundles in submission order; none at all (every
        layer of it falls back) when the task was never submitted or its
        future failed."""
        if future is None:
            return []
        try:
            bundles: List[Optional[Dict]] = future.result()
        except BrokenProcessPool:
            _discard_pool(executor)
            return []
        # stonne: lint-ok[EXC-BROAD] a failed task raises arbitrary types; the serial fallback reproduces genuine simulation errors typed
        except Exception:
            return []
        return bundles

    def _note_batch(self, task_seconds: List[float], wall_s: float) -> None:
        """Pool-health gauges for one parallel batch: how well the pool
        was saturated and how unequal the per-task costs were."""
        registry = telemetry()
        if not registry.enabled or not task_seconds:
            return
        registry.gauge(
            "stonne_pool_straggler_spread_s",
            "Slowest minus fastest task seconds in the last batch",
        ).set(max(task_seconds) - min(task_seconds))
        capacity = wall_s * self.jobs
        busy = min(sum(task_seconds) / capacity, 1.0) if capacity > 0 else 0.0
        registry.gauge(
            "stonne_pool_busy_fraction",
            "Aggregate worker busy time over pool capacity, last batch",
        ).set(busy)

    # ---- the whole-model run ------------------------------------------
    def _close_stage(
        self, stage_seconds: Dict[str, float], stage: str, started: float
    ) -> float:
        """Book the stage that began at ``started``: one clock reading,
        which telemetry and the :class:`ModelRunResult` both get and
        which is returned as the start of the next stage."""
        now = time.perf_counter()
        stage_seconds[stage] = now - started
        telemetry().histogram(
            "stonne_stage_seconds",
            "Host wall seconds per model-run stage",
        ).observe(now - started, stage=stage)
        return now

    def run_model(self, model, x: np.ndarray, base_cycle: int = 0) -> ModelRunResult:
        """Simulate ``model(x)``; returns output + merged report."""
        stage_seconds: Dict[str, float] = {}
        clock = time.perf_counter()
        output, workloads = record_model(
            model, x, self.config,
            round_builder=self.round_builder, tiles=self.tiles,
        )
        clock = self._close_stage(stage_seconds, "record", clock)

        if self.progress is not None:
            self.progress.total = len(workloads)
            self.progress.model_start()

        # the lens set is part of the key: ledgers ride in the layer
        # extras the cache stores verbatim, so attributed and
        # ledger-free payloads must never share an entry
        lenses = self._worker_lenses()
        cache = self.cache
        # keyed with or without a cache object: the key is also what
        # folds a model's repeated shapes onto one simulation, under the
        # fold rule a serial run follows too (Observability.folds_repeats);
        # with a cache to replay from, every lens set is keyed
        keyed = cache is not None or self.obs.folds_repeats
        keys: Dict[int, Optional[str]] = dict(zip(
            (w.index for w in workloads),
            SimCache.keys_of(workloads, self.config, lenses) if keyed
            else [None] * len(workloads),
        ))
        bundles: Dict[int, Dict] = {}
        cache_hits = 0
        for workload in workloads:
            key = keys[workload.index]
            if cache is None or key is None:
                continue
            payload = cache.get(key, self.config)
            if payload is not None:
                bundles[workload.index] = {"layer": payload}
                cache_hits += 1
                self._task_done(workload, bundles[workload.index], "cached")

        # fold repeated shapes onto one simulation each
        first_for_key: Dict[str, int] = {}
        shared_from: Dict[int, int] = {}
        misses: List[LayerWorkload] = []
        for workload in workloads:
            if workload.index in bundles:
                continue
            key = keys[workload.index]
            if key is not None and key in first_for_key:
                shared_from[workload.index] = first_for_key[key]
                continue
            if key is not None:
                first_for_key[key] = workload.index
            misses.append(workload)

        simulated, fallbacks = self._simulate_misses(misses, lenses)
        bundles.update(simulated)
        by_index = {w.index: w for w in workloads}
        for index, source in shared_from.items():
            bundles[index] = _shared_bundle(
                simulated[source], by_index[index].name,
                self.obs.folds_repeats,
            )
            self._task_done(by_index[index], bundles[index], "deduplicated")

        if cache is not None:
            for workload in misses:
                key = keys[workload.index]
                if key is not None:
                    cache.put(
                        key, simulated[workload.index]["layer"], self.config
                    )
        clock = self._close_stage(stage_seconds, "simulate", clock)

        report = self._merge(workloads, bundles, base_cycle)
        report.metadata.update({
            "parallel_jobs": self.jobs,
            "parallel_layers": len(workloads),
            "parallel_simulated": len(misses),
            "parallel_cache_hits": cache_hits,
            "parallel_deduplicated": len(shared_from),
            "parallel_fallbacks": fallbacks,
            # run-registry consumers mark fully cache-served runs as
            # cached; carried in metadata (never in layer payloads,
            # which must stay byte-identical to a serial run)
            "parallel_all_cached": bool(workloads) and not misses,
        })
        self._close_stage(stage_seconds, "merge", clock)
        if self.progress is not None:
            self.progress.model_end()
        return ModelRunResult(
            output=output,
            report=report,
            layers=len(workloads),
            simulated=len(misses),
            cache_hits=cache_hits,
            deduplicated=len(shared_from),
            fallbacks=fallbacks,
            stage_seconds=stage_seconds,
        )

    def _merge(
        self,
        workloads: List[LayerWorkload],
        bundles: Dict[int, Dict],
        base_cycle: int,
    ) -> SimulationReport:
        """Assemble per-layer results, in order, onto one timeline."""
        report = SimulationReport(self.config)
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        base = base_cycle
        # every earlier layer's counters, which a later layer's metrics
        # series is rebased onto (summed only when there is a series)
        running_totals: Dict[str, float] = {}
        for workload in workloads:
            bundle = bundles[workload.index]
            payload = bundle["layer"]
            raw_samples = bundle.get("metrics_samples")
            if metrics is not None and raw_samples:
                samples = [
                    MetricsSample(cycle=s["cycle"], values=s["values"])
                    for s in raw_samples
                ]
                metrics.ingest(
                    samples, cycle_offset=base, value_offsets=running_totals
                )
                payload = {**payload, "extra": {
                    **payload.get("extra", {}),
                    "metrics": [
                        {
                            "cycle": s.cycle + base,
                            **{k: running_totals.get(k, 0.0) + s.values[k]
                               for k in TRACE_COUNTER_SERIES
                               if k in s.values},
                        }
                        for s in samples
                    ],
                }}
            layer = LayerReport.from_payload(payload, name=workload.name)
            if tracer.enabled:
                events = bundle.get("trace")
                if events:
                    tracer.extend(events, offset=base)
                else:
                    # a cache hit (or, under the metrics recorder, a
                    # deduplicated layer) has no records; it still gets
                    # its window on the timeline
                    tracer.span(
                        f"layer:{workload.name}", "accelerator",
                        base, base + layer.cycles,
                        kind=layer.kind, cycles=layer.cycles, cached=True,
                    )
            if metrics is not None:
                for name, value in layer.counters.items():
                    running_totals[name] = running_totals.get(name, 0.0) + value
            base += layer.cycles
            report.append(layer)
            # cache hits and deduplicated layers carry no task clock:
            # nothing was simulated for them
            self.obs.host_time.append(LayerHostTime(
                layer.name, layer.kind, layer.cycles,
                bundle.get("host_seconds"), bundle["mode"],
            ))
        return report
