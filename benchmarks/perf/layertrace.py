"""Per-layer numbers: harness-side spans and direct layer probes.

Nothing here lives inside ``repro``. Spans are recorded around the calls
the harness makes into each layer, and around the calls one layer makes
into the next *through objects the harness handed over* (the accelerator
given to ``simulate``, its controllers, the cache, the model, the lens
objects), by wrapping those objects in recording proxies. Probes then
call each layer's public functions directly on the operands the
workload's cells record, so a layer's cost is known apart from its
callers. Every time below is host seconds; counts marked exact in
``metrics.py`` are simulated quantities.
"""

import contextlib
import pickle
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

import numpy as np

from repro.config.layer import GemmSpec
from repro.engine.accelerator import (
    Accelerator,
    conv_functional,
    conv_layer_spec,
    gemm_functional,
    maxpool_functional,
)
from repro.engine.mapper import Mapper
from repro.engine.stats import SimulationReport
from repro.frontend.layers import Conv2d, Linear
from repro.frontend.models import MODEL_INFO, MODEL_NAMES, build_model
from repro.frontend.simulated import simulate_parallel
from repro.observability import Observability
from repro.observability.insight import explain_record
from repro.observability.provenance import config_hash
from repro.observability.registry import RunRegistry
from repro.observability.telemetry import enable_telemetry
from repro.parallel import SimCache, record_model
from repro.tensors.im2col import im2col
from repro.tensors.pruning import magnitude_prune
from repro.tensors.sparse import BitmapMatrix, CsrMatrix, from_dense

import workloads as W
from metrics import PER_LAYER, STALL_BUCKETS


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _Proxy:
    """Forwards everything to ``target``; calls to the methods named in
    ``spans`` (method -> span name) are recorded."""

    def __init__(self, target, recorder, spans, aggregate=False):
        self.__dict__["_target"] = target
        self.__dict__["_recorder"] = recorder
        self.__dict__["_spans"] = spans
        self.__dict__["_aggregate"] = aggregate

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        name = self._spans.get(attr)
        if name is None:
            return value
        recorder = self._recorder
        if self._aggregate:
            def timed(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return value(*args, **kwargs)
                finally:
                    recorder.aggregate(name, time.perf_counter() - started)
        else:
            def timed(*args, **kwargs):
                with recorder.span(name):
                    return value(*args, **kwargs)
        # looked up ~10^5 times a pass: build the wrapper once
        self.__dict__[attr] = timed
        return timed

    def __setattr__(self, attr, value):
        setattr(self._target, attr, value)


class _SpannedModel:
    """``record_model`` needs ``modules()`` and a call; the call is the
    frontend's forward pass."""

    def __init__(self, model, recorder):
        self._model = model
        self._recorder = recorder

    def modules(self):
        return self._model.modules()

    def __call__(self, x):
        with self._recorder.span("frontend.forward"):
            return self._model(x)


class SpanRecorder:
    """In-memory span tree: name, start, end, parent span, cell id.

    Lens calls (tracer / stall / fabric) run ~10^5 times per pass, so
    they are not one span each: their seconds and call counts are summed
    per enclosing span and emitted as one child span when it closes.
    """

    ACCELERATOR_SPANS = {
        "run_conv": "engine.run_conv", "run_gemm": "engine.run_gemm",
        "run_spmm": "engine.run_spmm", "run_maxpool": "engine.run_maxpool",
    }

    def __init__(self):
        self.spans = []
        self.cell = None
        self._stack = []
        self._aggregates = [defaultdict(lambda: [0.0, 0])]

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans), "name": name, "cell": self.cell,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        self._aggregates.append(defaultdict(lambda: [0.0, 0]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            for lens, (seconds, calls) in self._aggregates.pop().items():
                self.spans.append({
                    "id": len(self.spans), "name": lens, "cell": self.cell,
                    "parent": record["id"], "start": record["start"],
                    "end": record["start"] + seconds, "calls": calls,
                })

    def aggregate(self, name, seconds):
        cell = self._aggregates[-1][name]
        cell[0] += seconds
        cell[1] += 1

    # ---- the hooks run_cell calls --------------------------------------
    def accelerator(self, acc):
        if acc.systolic is not None:
            acc.systolic = _Proxy(
                acc.systolic, self, {"run_gemm": "engine.systolic"})
        if acc.dense_controller is not None:
            acc.dense_controller = _Proxy(acc.dense_controller, self, {
                "run_conv": "memory.dense_ctrl",
                "run_gemm": "memory.dense_ctrl"})
            acc.mapper = _Proxy(acc.mapper, self, {
                "tile_for_conv": "engine.mapper",
                "tile_for_gemm": "engine.mapper"})
        if acc.sparse_controller is not None:
            acc.sparse_controller = _Proxy(
                acc.sparse_controller, self, {"run_spmm": "memory.sparse_ctrl"})
        return _Proxy(acc, self, self.ACCELERATOR_SPANS)

    def model(self, model):
        return _SpannedModel(model, self)

    def cache(self, cache):
        return _Proxy(cache, self, {
            "key": "parallel.cache_key", "get": "parallel.cache_get",
            "put": "parallel.cache_put"})

    def lenses(self, obs):
        obs.tracer = _Proxy(obs.tracer, self, dict.fromkeys(
            ("span", "begin", "end", "instant", "counter", "extend"),
            "observability.tracer"), aggregate=True)
        obs.stalls = _Proxy(obs.stalls, self, dict.fromkeys(
            ("charge", "finalize", "reset"), "observability.stalls"),
            aggregate=True)
        obs.fabric = _Proxy(obs.fabric, self, dict.fromkeys(
            ("charge_levels", "record_fifo", "finalize", "reset"),
            "observability.fabric"), aggregate=True)
        return obs


def self_seconds(spans):
    """Span name -> summed self time (duration minus child durations)."""
    child_total = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    by_name = defaultdict(float)
    for span in spans:
        by_name[span["name"]] += (
            span["end"] - span["start"] - child_total[span["id"]])
    return dict(by_name)


def layer_shares(by_name):
    """Self seconds rolled up to the layer (the span name's prefix)."""
    by_layer = defaultdict(float)
    for name, seconds in by_name.items():
        by_layer[name.split(".")[0]] += seconds
    return dict(sorted(by_layer.items(), key=lambda item: -item[1]))


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
class _Timers:
    """metric name -> accumulated calibrated seconds of the calls made
    under it. ``calibrate()`` (once per cell) runs a calibration slice;
    the calls after it are scaled to reference-host seconds by it. A
    probe with nothing to do on a workload (``engine.run_s.spmm`` on
    dense cells) reads 0.
    """

    def __init__(self, calibrator):
        self.seconds = {
            m.name: 0.0 for m in PER_LAYER
            if m.unit == "s" and not m.name.startswith("parallel.stage_s.")}
        self._calibrator = calibrator
        self.calibrate()

    def calibrate(self):
        self.scale = self._calibrator.scale()

    def call(self, metric, function, *args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            self.seconds[metric] += (
                time.perf_counter() - started) * self.scale


def _dense(operand):
    if isinstance(operand, (BitmapMatrix, CsrMatrix)):
        return operand.to_dense()
    return np.asarray(operand, dtype=np.float32)


def _stationary_matrix(layer):
    """The 2-D stationary operand the sparse fabric would hold: the
    weights, block-diagonal over groups for a grouped convolution."""
    weights = _dense(layer.operands["weights"])
    if layer.kind != "conv":
        return weights
    groups = layer.params["groups"]
    k = weights.shape[0] // groups
    flat = weights.reshape(weights.shape[0], -1)
    if groups == 1:
        return flat
    dot = flat.shape[1]
    block = np.zeros((k * groups, dot * groups), dtype=np.float32)
    for g in range(groups):
        block[g * k:(g + 1) * k, g * dot:(g + 1) * dot] = flat[g * k:(g + 1) * k]
    return block


def _run_layer(acc, layer):
    """``Accelerator.run_*`` on one recorded layer's operands."""
    params, operands = layer.params, layer.operands
    if layer.kind == "conv":
        acc.run_conv(
            operands["weights"], operands["inputs"], stride=params["stride"],
            padding=params["padding"], groups=params["groups"],
            tile=params["tile"], name=layer.name,
            round_builder=params.get("round_builder"))
    elif layer.kind == "gemm":
        acc.run_gemm(operands["weights"], operands["inputs"],
                     tile=params["tile"], name=layer.name)
    elif layer.kind == "spmm":
        acc.run_spmm(operands["weights"], operands["inputs"],
                     round_builder=params.get("round_builder"),
                     name=layer.name)
    else:
        acc.run_maxpool(operands["inputs"], pool=params["pool"],
                        stride=params["stride"], name=layer.name)


def _engine_pass(recorded, calibrator, **lenses):
    """Every recorded layer on a fresh accelerator. Returns calibrated
    run_* seconds by kind, one merged report per cell, and the
    trace-event count."""
    seconds = defaultdict(float)
    reports = []
    events = 0
    for cell, layers in recorded:
        scale = calibrator.scale()
        merged = SimulationReport(cell.config)
        for layer in layers:
            obs = Observability.create(**lenses) if lenses else None
            acc = Accelerator(cell.config, observability=obs)
            started = time.perf_counter()
            _run_layer(acc, layer)
            seconds[layer.kind] += (time.perf_counter() - started) * scale
            merged.append(acc.report.layers[0])
            if obs is not None:
                events += len(obs.tracer.events)
        reports.append(merged)
    return seconds, reports, events


def _direct_probes(recorded, timers):
    """functional / im2col / encode / mapper / systolic / controllers,
    each called directly on every recorded layer it applies to."""
    for cell, layers in recorded:
        timers.calibrate()
        probe = Accelerator(cell.config)  # tells which engine the cell has
        for layer in layers:
            params, operands = layer.params, layer.operands
            if layer.kind == "maxpool":
                timers.call("engine.functional_s", maxpool_functional,
                            operands["inputs"], params["pool"], params["stride"])
                continue
            weights = _dense(operands["weights"])
            inputs = np.asarray(operands["inputs"], dtype=np.float32)
            stationary = _stationary_matrix(layer)
            timers.call("tensors.sparse_encode_s", from_dense, stationary)
            spec = None
            if layer.kind == "conv":
                spec = conv_layer_spec(
                    weights, inputs, stride=params["stride"],
                    padding=params["padding"], groups=params["groups"],
                    name=layer.name)
                for g in range(spec.g):
                    timers.call(
                        "tensors.im2col_s", im2col,
                        inputs[:, g * spec.c:(g + 1) * spec.c], spec.r, spec.s,
                        params["stride"], params["padding"])
                _, group_cols = timers.call(
                    "engine.functional_s", conv_functional, weights, inputs,
                    params["stride"], params["padding"], params["groups"], spec)
                gemms = [
                    (weights[g * spec.k:(g + 1) * spec.k].reshape(spec.k, -1),
                     cols) for g, cols in enumerate(group_cols)]
                n_cols = group_cols[0].shape[1]
            else:
                timers.call("engine.functional_s", gemm_functional,
                            weights, inputs)
                gemms = [(weights, inputs)]
                n_cols = inputs.shape[1]
            if probe.systolic is not None:
                for a, b in gemms:
                    timers.call("engine.systolic_s",
                                Accelerator(cell.config).systolic.run_gemm, a, b)
            elif probe.dense_controller is not None:
                mapper = Mapper(cell.config)
                fresh = Accelerator(cell.config).dense_controller
                if spec is not None:
                    tile = timers.call("engine.mapper_s", mapper.tile_for_conv,
                                       spec, params.get("tile"))
                    timers.call("memory.dense_ctrl_s", fresh.run_conv,
                                spec, tile)
                else:
                    gemm = GemmSpec(m=weights.shape[0], n=n_cols,
                                    k=weights.shape[1], name=layer.name)
                    tile = timers.call("engine.mapper_s", mapper.tile_for_gemm,
                                       gemm, params.get("tile"))
                    timers.call("memory.dense_ctrl_s", fresh.run_gemm,
                                gemm, tile)
            else:
                timers.call(
                    "memory.sparse_ctrl_s",
                    Accelerator(cell.config).sparse_controller.run_spmm,
                    stationary, n_cols, params.get("round_builder"))


def _cache_probes(recorded, reports, tmp_dir, timers):
    """key / put / get on every cacheable recorded layer, and the bytes
    a pool task would pickle. Returns (disk bytes, mean pickle bytes)."""
    directory = tempfile.mkdtemp(prefix="probe-cache-", dir=tmp_dir)
    writer = SimCache(directory)
    keyed = []
    pickled = []
    for (cell, layers), report in zip(recorded, reports):
        timers.calibrate()
        for layer, simulated in zip(layers, report.layers):
            pickled.append(len(pickle.dumps((cell.config, layer))))
            key = timers.call("parallel.cache_key_s", writer.key,
                              layer, cell.config)
            if key is not None:
                timers.call("parallel.cache_put_s", writer.put, key,
                            simulated.to_payload(), cell.config)
                keyed.append((key, cell.config))
    reader = SimCache(directory)  # empty memory layer: gets read the disk
    for key, config in keyed:
        timers.call("parallel.cache_get_s", reader.get, key, config)
    return writer.disk_bytes(), sum(pickled) / max(len(pickled), 1)


def _setup_probes(workload, seed, timers):
    """Model construction and pruning, timed apart (set-up's two parts)."""
    if workload.path == "tablev":
        timers.call("frontend.build_s", W.tablev_row_cells)
        return  # Table V rows are dense: nothing to prune
    weight_seed, _ = W.derive_seeds(seed)
    for name in MODEL_NAMES:
        model = timers.call("frontend.build_s", build_model, name,
                            seed=weight_seed, prune=False)
        for module in model.modules():
            if isinstance(module, (Conv2d, Linear)):
                timers.call("tensors.prune_s", magnitude_prune,
                            module.weight.data, MODEL_INFO[name].sparsity)


def _registry_probes(reports, tmp_dir, timers):
    """Record each stall-attributed cell report, then explain it; returns
    the nine stall buckets summed over the cells' primary rows."""
    buckets = dict.fromkeys(STALL_BUCKETS, 0)
    directory = tempfile.mkdtemp(prefix="probe-registry-", dir=tmp_dir)
    with RunRegistry(directory) as registry:
        for index, report in enumerate(reports):
            run_id = timers.call("observability.registry_record_s",
                                 registry.record_report, report,
                                 f"perf-probe-{index}")
            explained = timers.call("observability.explain_s", explain_record,
                                    registry.get(run_id))
            for bucket, cycles in explained["buckets"].items():
                buckets[bucket] += cycles
    return buckets


def _cli(env):
    """A cold ``stonne model`` process, start to exit."""
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-m", "repro.ui.cli", "model",
         "squeezenet", "--arch", "tpu", "--num-ms", "256", "--no-registry"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"stonne model CLI failed: {done.stderr.strip()}")


def _parallel_probe(cells, tmp_dir):
    """The cells through ``simulate_parallel`` (one job, empty cache) so
    the parallel layer's telemetry has something to report on workloads
    that do not use it themselves."""
    cache = SimCache(tempfile.mkdtemp(prefix="probe-par-", dir=tmp_dir))
    for cell in cells:
        simulate_parallel(cell.model, Accelerator(cell.config), cell.x,
                          jobs=1, cache=cache, tiles=cell.tiles)


def _telemetry_metrics(registry):
    """The parallel layer's own figures, read from the telemetry facade."""
    def total(name, **labels):
        instrument = registry.get(name)
        if instrument is None:
            return 0.0
        return instrument.value(**labels) if labels else instrument.total()

    out = {}
    stages = registry.get("stonne_stage_seconds")
    for stage in ("record", "simulate", "merge"):
        out[f"parallel.stage_s.{stage}"] = (
            stages.sum(stage=stage) if stages is not None else 0.0)
    hits = total("stonne_simcache_hits_total")
    misses = total("stonne_simcache_misses_total")
    out["parallel.cache_hits"] = hits
    out["parallel.cache_misses"] = misses
    out["parallel.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["parallel.deduplicated"] = total(
        "stonne_pool_tasks_total", mode="deduplicated")
    out["parallel.fallbacks"] = total("stonne_pool_tasks_total", mode="fallback")
    busy = registry.get("stonne_pool_busy_fraction")
    out["parallel.pool_busy_fraction"] = busy.value() if busy is not None else 0.0
    return out


def traced_numbers(state, probe_cells, seed, run_pass, calibrator, env):
    """The whole ``--trace`` measurement of one workload.

    ``run_pass(rec)`` runs one pass of the workload and returns its
    calibrated seconds. Returns (metric name -> value, spans).
    """
    timers = _Timers(calibrator)
    values = {}

    untraced_s = run_pass(W.NO_SPANS)
    registry = enable_telemetry(True)
    try:
        registry.reset()
        values["observability.telemetry_overhead_ratio"] = (
            run_pass(W.NO_SPANS) / untraced_s)
        registry.reset()
        recorder = SpanRecorder()
        with recorder.span("harness.pass"):
            traced_s = run_pass(recorder)
        values["trace_overhead_ratio"] = traced_s / untraced_s
        if state.workload.path != "parallel":
            _parallel_probe(probe_cells, state.tmp_dir)
        values.update(_telemetry_metrics(registry))
    finally:
        enable_telemetry(False)
        registry.reset()

    _setup_probes(state.workload, seed, timers)
    native_done = set()
    for cell in probe_cells:
        if id(cell.model) not in native_done:
            native_done.add(id(cell.model))
            timers.call("frontend.native_forward_s", cell.model, cell.x)
    recorded = []
    for cell in probe_cells:
        timers.calibrate()
        _, layers = timers.call("parallel.record_s", record_model, cell.model,
                                cell.x, cell.config, tiles=cell.tiles)
        recorded.append((cell, layers))
        timers.call("config.hash_s", config_hash, cell.config)
    values["frontend.offloaded_layers"] = sum(len(l) for _, l in recorded)

    off_s, reports, _ = _engine_pass(recorded, calibrator)
    layer_counts = Counter(
        layer.kind for _, layers in recorded for layer in layers)
    for kind in ("conv", "gemm", "spmm", "maxpool"):
        timers.seconds[f"engine.run_s.{kind}"] += off_s.get(kind, 0.0)
        values[f"engine.layers.{kind}"] = layer_counts[kind]
    off_total = sum(off_s.values())
    cycles = sum(r.total_cycles for r in reports)
    values["engine.sim_cycles"] = cycles
    values["engine.sim_macs"] = sum(r.total_macs for r in reports)
    values["engine.host_us_per_sim_kcycle"] = off_total * 1e6 / (cycles / 1e3)

    counters = defaultdict(float)
    for report in reports:
        timers.call("engine.report_s", report.as_dict)
        timers.call("engine.report_s", report.total_energy)
        timers.call("engine.report_s", report.area)
        for name, value in report.merged_counters().as_dict().items():
            counters[name] += value
    for name in ("ctrl_cycles", "gb_reads", "gb_writes", "dram_bytes_read",
                 "ctrl_psum_spills"):
        values[f"memory.{name}"] = counters[name]
    row_accesses = counters["dram_row_hits"] + counters["dram_row_misses"]
    values["memory.dram_row_hit_ratio"] = (
        counters["dram_row_hits"] / row_accesses if row_accesses else 0.0)
    for name in ("dn_busy_cycles", "dn_elements_sent", "mn_multiplications",
                 "mn_reconfigurations", "rn_adder_ops", "rn_adder_ops_3to1"):
        values[f"noc.{name}"] = counters[name]

    for lens in ("trace", "stalls", "fabric"):
        on_s, lens_reports, events = _engine_pass(
            recorded, calibrator, **{lens: True})
        values[f"observability.lens_cost_ratio.{lens}"] = (
            sum(on_s.values()) / off_total)
        if lens == "trace":
            values["observability.trace_events"] = events
        elif lens == "stalls":
            for bucket, total in _registry_probes(
                    lens_reports, state.tmp_dir, timers).items():
                values[f"observability.stall.{bucket}"] = total

    _direct_probes(recorded, timers)
    disk_bytes, pickle_bytes = _cache_probes(
        recorded, reports, state.tmp_dir, timers)
    values["parallel.cache_disk_bytes"] = disk_bytes
    values["parallel.pickle_bytes"] = pickle_bytes
    timers.calibrate()
    timers.call("ui.cli_cold_s", _cli, env)

    values.update(timers.seconds)
    return values, recorder.spans
