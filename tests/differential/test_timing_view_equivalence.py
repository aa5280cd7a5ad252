"""Differential suite: a shape-only timing view equals its workload.

``LayerWorkload.timing_view()`` replaces every operand by an
``OperandSpec`` (shape and dtype, no values) wherever
``parallel.cache.cacheable`` says values do not decide the timing. It is
the proof that dense timing reads only shapes:

(a) a view times to the same payload, trace and metrics samples as its
    workload, byte for byte, and has its cache key — two key digests
    taken before views existed are committed below, so the key text
    provably did not move;
(b) where values decide, there is no view: the workload is its own, and
    it is timed from its values;
(c) a layer the fabric cannot map raises the same typed error whatever
    ``jobs`` says.
"""

import json

import numpy as np
import pytest

from repro.config import TileConfig, maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
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


def _zoo(model_name):
    return build_model(model_name, seed=0), model_input(
        model_name, batch=1, seed=1)


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


# ---- (b) values decide: no view -------------------------------------
def test_data_dependent_workload_has_no_view_and_is_timed_from_its_values(
    monkeypatch,
):
    config = CONFIGS["maeri64"]
    flagged = [_gemm(i, data_dependent=True) for i in range(3)]
    for workload in flagged:
        assert workload.timing_view() is workload
        assert not cacheable(workload, config)
    timed = []
    real_time = Accelerator.time

    def spying_time(self, workload):
        timed.append(workload)
        return real_time(self, workload)

    monkeypatch.setattr(Accelerator, "time", spying_time)
    results = ParallelModelRunner(config, jobs=2)._simulate_misses(flagged, {})
    assert sorted(results) == [0, 1, 2]
    # the recorded workloads themselves, operand arrays and all
    assert len(timed) == len(flagged)
    assert all(a is b for a, b in zip(timed, flagged))


# ---- (c) errors stay typed -------------------------------------------
def test_unmappable_tile_raises_the_same_error_serial_and_pooled():
    config = maeri_like(num_ms=32, bandwidth=8)
    tiles = {"c2": TileConfig(t_r=3, t_s=3, t_c=4, t_k=4)}  # 144 > 32 MSs
    model, x = _tiny_model(), _tiny_input()
    with pytest.raises(MappingError) as serial:
        ParallelModelRunner(config, jobs=1, tiles=tiles).run_model(model, x)
    with pytest.raises(MappingError) as pooled:
        ParallelModelRunner(config, jobs=2, tiles=tiles).run_model(model, x)
    assert str(pooled.value) == str(serial.value)
