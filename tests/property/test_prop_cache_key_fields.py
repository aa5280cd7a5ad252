"""Cache-key coverage: a field the key leaves out cannot move a payload.

:class:`~repro.parallel.cache.SimCache` serves a stored payload to every
workload with the same key, so each field of each dataclass a dense
layer is described by must either reach the key or not matter to the
timing. For every field of ``HardwareConfig``, ``DramConfig``,
``TileConfig``, ``ConvLayerSpec`` and ``GemmSpec``, the property changes
that one field of a drawn layer and checks that the key changes or the
payload :func:`~repro.parallel.runner._simulate_workload` returns is
byte-identical (the layer name aside, which a hit re-stamps). A new field
needs an entry in ``VARIANTS`` before this file passes again.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ConvLayerSpec,
    DramConfig,
    GemmSpec,
    HardwareConfig,
    TileConfig,
    maeri_like,
)
from repro.config.hardware import (
    ControllerKind,
    Dataflow,
    DataType,
    DistributionKind,
    EngineMode,
    MultiplierKind,
    ReductionKind,
    SparseFormat,
)
from repro.config.layer import LayerKind
from repro.engine.workload import LayerWorkload, OperandSpec
from repro.parallel.cache import canonical_key
from repro.parallel.runner import _simulate_workload

#: class → field → a different valid value for it
VARIANTS = {
    HardwareConfig: {
        "num_ms": 32, "dn_bandwidth": 2, "rn_bandwidth": 2,
        "controller": ControllerKind.SNAPEA,
        "distribution": DistributionKind.BENES,
        "multiplier": MultiplierKind.DISABLED,
        "reduction": ReductionKind.FAN,
        "dataflow": Dataflow.WEIGHT_STATIONARY,
        "sparse_format": SparseFormat.CSR, "dtype": DataType.INT8,
        "gb_size_kb": 64, "gb_banks": 4, "ms_fifo_depth": 8,
        "dn_fifo_depth": 8, "rn_fifo_depth": 4,
        "accumulation_buffer": False, "engine_mode": EngineMode.CYCLE,
        "clock_ghz": 2.0, "technology_nm": 45,
        "dram": DramConfig(bandwidth_gbps=256.0), "name": "renamed",
    },
    DramConfig: {
        "bandwidth_gbps": 64.0, "size_mb": 512, "access_latency_cycles": 50,
        "row_buffer_bytes": 1024, "row_hit_latency_cycles": 10,
    },
    TileConfig: {
        "t_r": 3, "t_s": 3, "t_c": 2, "t_g": 2, "t_k": 2, "t_n": 2,
        "t_x": 2, "t_y": 2,
    },
    ConvLayerSpec: {
        "r": 1, "s": 1, "c": 3, "k": 2, "g": 2, "n": 2, "x": 9, "y": 9,
        "stride": 2, "kind": LayerKind.SQUEEZE_CONV, "name": "renamed",
    },
    GemmSpec: {"m": 3, "n": 5, "k": 7, "name": "renamed"},
}

BASE_TILE = TileConfig(t_r=1, t_s=1, t_c=1)


def test_every_field_has_a_variant():
    for cls, variants in VARIANTS.items():
        assert set(variants) == {f.name for f in dataclasses.fields(cls)}


def _conv(spec, tile):
    return LayerWorkload(
        index=0, kind="conv", name=spec.name,
        params={"stride": spec.stride, "padding": 0, "groups": spec.g,
                "tile": tile},
        operands={
            "weights": OperandSpec((spec.k * spec.g, spec.c, spec.r, spec.s),
                                   "float32"),
            "inputs": OperandSpec((spec.n, spec.c * spec.g, spec.x, spec.y),
                                  "float32"),
        },
    )


def _gemm(spec, tile):
    return LayerWorkload(
        index=0, kind="gemm", name=spec.name, params={"tile": tile},
        operands={"weights": OperandSpec((spec.m, spec.k), "float32"),
                  "inputs": OperandSpec((spec.k, spec.n), "float32")},
    )


def _timed(config, workload):
    payload = dict(_simulate_workload(config, workload)["layer"])
    payload.pop("name")
    return json.dumps(payload, sort_keys=True)


def _check(base, variant):
    (config, workload), (other_config, other) = base, variant
    if canonical_key(workload, config) != canonical_key(other, other_config):
        return
    assert _timed(config, workload) == _timed(other_config, other)


@settings(max_examples=10, deadline=None)
@given(
    r=st.integers(1, 3), c=st.integers(1, 4), k=st.integers(1, 4),
    x=st.integers(4, 8),
    m=st.integers(1, 8), n=st.integers(1, 8), depth=st.integers(1, 8),
)
def test_a_field_outside_the_key_leaves_the_payload_alone(
    r, c, k, x, m, n, depth
):
    config = maeri_like(16, bandwidth=4)
    # stride 1 (its variant, 2, always changes the output size)
    conv = ConvLayerSpec(r=r, s=r, c=c, k=k, x=x, y=x, name="conv")
    gemm = GemmSpec(m=m, n=n, k=depth, name="gemm")
    base_conv = (config, _conv(conv, BASE_TILE))
    base_gemm = (config, _gemm(gemm, None))
    for field, value in VARIANTS[ConvLayerSpec].items():
        changed = dataclasses.replace(conv, **{field: value})
        _check(base_conv, (config, _conv(changed, BASE_TILE)))
    for field, value in VARIANTS[GemmSpec].items():
        _check(base_gemm, (config, _gemm(dataclasses.replace(
            gemm, **{field: value}), None)))
    for field, value in VARIANTS[TileConfig].items():
        tile = dataclasses.replace(BASE_TILE, **{field: value})
        _check(base_conv, (config, _conv(conv, tile)))
    for field, value in VARIANTS[HardwareConfig].items():
        _check(base_conv, (dataclasses.replace(config, **{field: value}),
                           base_conv[1]))
    for field, value in VARIANTS[DramConfig].items():
        dram = dataclasses.replace(config.dram, **{field: value})
        _check(base_conv, (dataclasses.replace(config, dram=dram),
                           base_conv[1]))
