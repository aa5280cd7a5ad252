"""Differential suite: what crosses the process boundary, and in how many
pieces.

The pool ships a shape-only ``LayerWorkload.timing_view()`` wherever
``parallel.cache.cacheable`` says values do not decide the timing, and it
ships one task per *chunk* of layers, not one per layer. Neither may be
observable in a result:

(a) a view times to the same payload, trace and metrics samples as its
    workload, byte for byte, and has its cache key — two key digests
    taken before views existed are committed below, so the key text
    provably did not move;
(b) a dense model submits at most ``jobs`` tasks whose pickle does not
    grow with the tensors; where values decide, they cross intact;
(c) one layer failing inside a chunk costs exactly that layer a serial
    fallback, and a genuine simulation error still surfaces typed;
(d) for any number of misses and workers, every miss is in exactly one
    chunk, there are at most ``jobs`` chunks, and results come back in
    workload order.
"""

import json
import pickle
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TileConfig, maeri_like, sigma_like, tpu_like
from repro.engine import workload as workload_module
from repro.errors import MappingError
from repro.frontend.layers import Conv2d, Flatten, Linear, MaxPool2d
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.module import Sequential
from repro.parallel import (
    LayerWorkload,
    ParallelModelRunner,
    SimCache,
    cacheable,
    canonical_key_source,
    record_model,
)
from repro.parallel import runner as runner_module
from repro.parallel.runner import _simulate_workload

CONFIGS = {
    "tpu16": tpu_like(num_pes=16),
    "tpu256": tpu_like(num_pes=256),
    "maeri64": maeri_like(num_ms=64, bandwidth=32),
    "maeri256": maeri_like(num_ms=256, bandwidth=128),
}

LENS_SETS = {
    "none": {},
    "ledgers": {"trace": True, "stalls": True, "fabric": True},
    "metrics": {"metrics_every": 64},
}


def _zoo(model_name, batch=1):
    return build_model(model_name, seed=0), model_input(
        model_name, batch=batch, seed=1)


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 4, 3, padding=1, name="c1", rng=rng),
        MaxPool2d(2, name="p1"),
        Conv2d(4, 4, 3, name="c2", rng=rng),
        Flatten(),
        Linear(4 * 2 * 2, 10, name="fc", rng=rng),
    )


def _tiny_input(seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1, 2, 8, 8)).astype(np.float32)


def _gemm(index, m=4, k=8, n=4, **fields):
    rng = np.random.default_rng(index)
    return LayerWorkload(
        index=index, kind="gemm", name=f"g{index}", params={"tile": None},
        operands={
            "weights": rng.standard_normal((m, k)).astype(np.float32),
            "inputs": rng.standard_normal((k, n)).astype(np.float32),
        },
        **fields,
    )


class _InlineExecutor:
    """Runs each task at ``submit`` on what a worker would unpickle, and
    keeps the pickle of every argument tuple."""

    def __init__(self):
        self.pickles = []

    def submit(self, fn, *args):
        wire = pickle.dumps(args)
        self.pickles.append(wire)
        future = Future()
        try:
            future.set_result(fn(*pickle.loads(wire)))
        except Exception as error:  # what a real future would carry
            future.set_exception(error)
        return future

    def arguments(self):
        return [pickle.loads(wire) for wire in self.pickles]


def _layer_fingerprint(report):
    return [
        (layer.name, layer.kind, layer.cycles, layer.macs, layer.outputs,
         layer.multiplier_utilization, layer.counters.as_dict(), layer.extra)
        for layer in report.layers
    ]


# ---- (a) a view equals its workload ------------------------------------
def _bundle_bytes(bundle):
    return json.dumps(
        {k: bundle[k] for k in ("layer", "trace", "metrics_samples")},
        sort_keys=True,
    )


@pytest.mark.parametrize("hardware", sorted(CONFIGS))
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_view_times_to_the_same_bytes_as_its_workload(model_name, hardware):
    config = CONFIGS[hardware]
    model, x = _zoo(model_name)
    _, workloads = record_model(model, x, config)
    assert workloads
    for workload in workloads:
        assert cacheable(workload, config)
        view = workload.timing_view()
        assert all(
            isinstance(v, workload_module.OperandSpec)
            for v in view.operands.values()
        )
        assert view.shapes() == workload.shapes()
        for lenses in LENS_SETS.values():
            assert canonical_key_source(view, config, lenses) == \
                canonical_key_source(workload, config, lenses)
            assert SimCache.key(view, config, lenses) == \
                SimCache.key(workload, config, lenses)
            assert _bundle_bytes(_simulate_workload(config, view, lenses)) \
                == _bundle_bytes(_simulate_workload(config, workload, lenses))


@pytest.mark.parametrize("as_view", [False, True], ids=["workload", "view"])
def test_key_digests_did_not_move(as_view):
    """Two keys taken at the commit before views existed (the
    ``workload`` case passes there): a cache directory written then is
    served entirely as hits now. (A PR that changes ``HardwareConfig`` or
    ``CACHE_SCHEMA_VERSION`` moves these on purpose and re-takes them.)"""
    gemm = LayerWorkload(
        index=0, kind="gemm", name="pinned-gemm", params={"tile": None},
        operands={"weights": np.zeros((4, 8), np.float32),
                  "inputs": np.zeros((8, 4), np.float32)},
    )
    conv = LayerWorkload(
        index=3, kind="conv", name="pinned-conv",
        params={"stride": 2, "padding": 1, "groups": 2,
                "tile": TileConfig(t_r=3, t_s=3, t_c=1, t_k=2),
                "round_builder": None},
        operands={"weights": np.zeros((8, 3, 3, 3), np.float32),
                  "inputs": np.zeros((2, 6, 9, 9), np.float32)},
    )
    ledgers = {"stalls": True, "fabric": True, "trace": True}
    pinned = (
        (gemm, CONFIGS["maeri64"], None,
         "e79c77a95050af97ce15f71170a63eedbdc365a78e0e15af873fdf7619eacbc5"),
        (conv, CONFIGS["tpu16"], ledgers,
         "dcc3b02784ca6a44968692328a96ff97cfa3c0d8aac5eaaf38618a06fd0a4097"),
    )
    for workload, config, lenses, digest in pinned:
        if as_view:
            workload = workload.timing_view()
        assert SimCache.key(workload, config, lenses) == digest


# ---- (b) what crosses --------------------------------------------------
def _dense_run_pickles(batch, jobs=2):
    model, x = _zoo("squeezenet", batch=batch)
    executor = _InlineExecutor()
    result = ParallelModelRunner(
        CONFIGS["tpu16"], jobs=jobs, executor=executor
    ).run_model(model, x)
    assert result.fallbacks == 0
    return result, executor


def test_dense_model_ships_shapes_in_at_most_jobs_tasks():
    result, executor = _dense_run_pickles(batch=1)
    assert 1 <= len(executor.pickles) <= 2
    shipped = [w for _, chunk, _ in executor.arguments() for w in chunk]
    assert len(shipped) == result.simulated > 2
    assert all(
        isinstance(v, workload_module.OperandSpec) for w in shipped
        for v in w.operands.values()
    )
    total = sum(len(wire) for wire in executor.pickles)
    assert total < 4096 * result.simulated
    # values never crossed, so a larger batch crosses in the same bytes
    _, larger = _dense_run_pickles(batch=4)
    assert sum(len(wire) for wire in larger.pickles) == total


def test_sparse_fabric_ships_the_operands_intact():
    config = sigma_like(num_ms=64, bandwidth=32)
    model, x = _tiny_model(), np.abs(_tiny_input())
    _, recorded = record_model(model, x, config)
    executor = _InlineExecutor()
    result = ParallelModelRunner(config, jobs=2, executor=executor).run_model(
        model, x)
    assert result.fallbacks == 0 and result.simulated == len(recorded)
    shipped = {w.index: w for _, chunk, _ in executor.arguments()
               for w in chunk}
    assert sorted(shipped) == [w.index for w in recorded]
    for original in recorded:
        arrived = shipped[original.index].operands
        assert sorted(arrived) == sorted(original.operands)
        for name, value in original.operands.items():
            assert isinstance(arrived[name], np.ndarray)
            assert np.array_equal(arrived[name], value)


def test_data_dependent_workload_has_no_view_and_crosses_intact():
    config = CONFIGS["maeri64"]
    flagged = [_gemm(i, data_dependent=True) for i in range(3)]
    for workload in flagged:
        assert workload.timing_view() is workload
        assert not cacheable(workload, config)
    executor = _InlineExecutor()
    runner = ParallelModelRunner(config, jobs=2, executor=executor)
    results, fallbacks = runner._simulate_misses(flagged, {})
    assert fallbacks == 0 and sorted(results) == [0, 1, 2]
    shipped = {w.index: w for _, chunk, _ in executor.arguments()
               for w in chunk}
    for original in flagged:
        for name, value in original.operands.items():
            assert np.array_equal(shipped[original.index].operands[name], value)


# ---- (c) chunk isolation -----------------------------------------------
def test_one_failing_layer_costs_exactly_one_fallback(monkeypatch):
    config = CONFIGS["maeri64"]
    model, x = _tiny_model(), _tiny_input()
    serial = ParallelModelRunner(config, jobs=1).run_model(model, x)
    real = runner_module._simulate_workload_in_worker

    def failing(config, workload, lenses):
        if workload.name == "003-c2":
            raise RuntimeError("worker bug on 003-c2")
        return real(config, workload, lenses)

    monkeypatch.setattr(
        runner_module, "_simulate_workload_in_worker", failing)
    runner = ParallelModelRunner(config, jobs=2, executor=_InlineExecutor())
    result = runner.run_model(model, x)
    assert result.fallbacks == 1
    assert {row.name: row.mode for row in runner.obs.host_time} == {
        "001-c1": "simulated", "002-p1": "simulated", "003-c2": "fallback",
        "004-fc": "simulated",
    }
    assert np.array_equal(result.output, serial.output)
    assert _layer_fingerprint(result.report) == \
        _layer_fingerprint(serial.report)


def test_unmappable_tile_raises_the_same_error_serial_and_pooled(jobs):
    config = maeri_like(num_ms=32, bandwidth=8)
    tiles = {"c2": TileConfig(t_r=3, t_s=3, t_c=4, t_k=4)}  # 144 > 32 MSs
    model, x = _tiny_model(), _tiny_input()
    with pytest.raises(MappingError) as serial:
        ParallelModelRunner(config, jobs=1, tiles=tiles).run_model(model, x)
    with pytest.raises(MappingError) as pooled:
        ParallelModelRunner(
            config, jobs=max(jobs or 2, 2), tiles=tiles
        ).run_model(model, x)
    assert str(pooled.value) == str(serial.value)


# ---- (d) chunking ------------------------------------------------------
@given(st.integers(0, 40), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_every_miss_is_in_one_chunk_and_results_keep_workload_order(
    count, jobs
):
    config = CONFIGS["maeri64"]
    misses = [_gemm(index) for index in range(count)]
    executor = _InlineExecutor()
    runner = ParallelModelRunner(config, jobs=jobs, executor=executor)
    results, fallbacks = runner._simulate_misses(misses, {})

    assert fallbacks == 0
    assert list(results) == list(range(count))
    assert [results[i]["layer"]["name"] for i in range(count)] == \
        [w.name for w in misses]
    chunks = [[w.index for w in chunk] for _, chunk, _ in executor.arguments()]
    if jobs == 1 or count <= 1:
        assert chunks == []  # in-process: nothing is submitted
    else:
        assert len(chunks) == min(count, jobs)
        assert sorted(i for chunk in chunks for i in chunk) == \
            list(range(count))
        # dealt round-robin: neighbours land on different workers
        assert all(chunk == sorted(chunk) for chunk in chunks)
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

