"""Whole-model simulation through one record pass and a result cache.

:class:`ParallelModelRunner` drives a model through three phases:

1. **Record** — one serial functional pass through the framework
   (:func:`~repro.parallel.workload.record_model`): real layer outputs,
   plus one :class:`~repro.parallel.workload.LayerWorkload` per offloaded
   operation.
2. **Simulate** — each distinct workload is timed exactly once, in
   process: cache-hit results are reused, duplicate shapes are
   deduplicated (with or without a cache object), and each remaining
   miss is timed on a fresh accelerator.
3. **Merge** — per-layer reports are assembled in framework execution
   order into one :class:`~repro.engine.stats.SimulationReport` that is
   byte-identical (cycles, counters, outputs) to a serial run; each
   layer's trace events and metrics samples are rebased onto the model
   timeline and merged into the caller's observability context.

``jobs`` is validated and recorded (``parallel_jobs``) but selects
nothing: a process pool lost to in-process timing on every measured
workload (``docs/PARALLEL.md``).
"""

from __future__ import annotations

import operator
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

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
from repro.parallel.cache import SimCache
from repro.parallel.workload import LayerWorkload, record_model


def _simulate_workload(
    config: HardwareConfig,
    workload: LayerWorkload,
    lenses: Optional[Dict[str, Any]] = None,
) -> Dict:
    """Time one workload on a fresh accelerator; plain-data result.

    Timing only (:meth:`Accelerator.time`): the record pass already
    produced the layer's output, so no tensor is computed here.
    ``lenses`` holds the :meth:`Observability.create` keyword arguments
    of the lens set to turn on (none by default). Never opens a run
    registry: per-layer fragments are not runs — only the merged report
    is registered, once, by whoever drove the model.
    """
    started = time.perf_counter()
    obs = Observability.create(**(lenses or {}))
    layer = Accelerator(config, observability=obs).time(workload)
    payload = layer.to_payload()
    # the metrics series is timeline-dependent; the merge rebuilds it
    # from the raw samples below, and the cache must never store it
    payload["extra"].pop("metrics", None)
    return {
        "layer": payload,
        "trace": obs.tracer.to_wire(),
        "metrics_samples": [
            {"cycle": s.cycle, "values": dict(s.values)}
            for s in (obs.metrics.samples if obs.metrics is not None else [])
        ],
        # host wall seconds of this one simulation; the merge keeps it
        # as the layer's host time and feeds it to telemetry
        # (never the cache — only "layer" is ever stored)
        "host_seconds": time.perf_counter() - started,
    }


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


def shutdown_pools() -> None:
    """Kept for callers written when layers were timed in worker
    processes; there is no pool to shut down, so it does nothing."""


@dataclass
class ModelRunResult:
    """Output tensor + report + execution accounting of one model run."""

    output: np.ndarray
    report: SimulationReport
    layers: int
    simulated: int        # workloads actually timed
    cache_hits: int
    deduplicated: int     # repeated shapes folded onto one simulation
    fallbacks: int        # always 0 (nothing runs out of process)
    stage_seconds: Dict[str, float]  # host seconds: record/simulate/merge


class ParallelModelRunner:
    """Simulates a model's offloaded layers, each distinct one once."""

    def __init__(
        self,
        config: Union[HardwareConfig, str, Path],
        jobs: Optional[int] = 1,
        cache: Optional[SimCache] = None,
        observability: Optional[Observability] = None,
        round_builder=None,
        tiles=None,
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
        #: validated and recorded as ``parallel_jobs``; selects nothing
        self.jobs = max(1, jobs)
        self.cache = cache
        self.obs = observability if observability is not None else Observability()
        self.round_builder = round_builder
        self.tiles = tiles
        self.progress = progress

    # ---- simulation of the distinct workloads -------------------------
    def _lenses(self) -> Dict[str, Any]:
        """The lens set as :meth:`Observability.create` keyword
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
    ) -> Dict[int, Dict]:
        """Time the given workloads one by one; returns index→bundle."""
        results: Dict[int, Dict] = {}
        for workload in misses:
            results[workload.index] = _simulate_workload(
                self.config, workload, lenses
            )
            self._task_done(workload, results[workload.index], "simulated")
        return results

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
        lenses = self._lenses()
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

        simulated = self._simulate_misses(misses, lenses)
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
            "parallel_fallbacks": 0,
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
            fallbacks=0,
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
