"""Property: a stall ledger accounts for the multiplications it covers.

``StallLedger.finalize`` turns an empty ledger into one all-idle
``controller`` row, which passes conservation: an engine whose timing
path stopped charging the ledger would still hand out valid-looking
attribution. What no empty ledger can fake is work. A layer of ``macs``
multiplications on ``num_ms`` multipliers keeps them busy for at least
``ceil(macs / num_ms)`` cycles, so on every fabric the component that
ran them must have charged at least that many ``compute_busy`` cycles.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import maeri_like, sigma_like, tpu_like
from repro.config.hardware import Dataflow
from repro.engine.accelerator import Accelerator
from repro.observability import Observability

_FABRICS = {
    "tpu-os": lambda ms: tpu_like(num_pes=ms),
    "tpu-ws": lambda ms: tpu_like(
        num_pes=ms, dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "maeri": lambda ms: maeri_like(num_ms=ms, bandwidth=ms // 4),
    "sigma": lambda ms: sigma_like(num_ms=ms, bandwidth=ms // 4),
}


@st.composite
def layers(draw):
    """A fabric, a layer on it and the operands' seed and density."""
    fabric = draw(st.sampled_from(sorted(_FABRICS)))
    num_ms = draw(st.sampled_from([16, 64]))
    kind = draw(st.sampled_from(["gemm", "conv"]))
    if kind == "gemm":
        shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)),
                 draw(st.integers(1, 40)))
    else:
        groups = draw(st.sampled_from([1, 2, 4]))
        shape = (
            groups * draw(st.integers(1, 4)),       # input channels
            groups * draw(st.integers(1, 6)),       # filters
            draw(st.integers(1, 3)),                # kernel side
            draw(st.integers(3, 9)),                # input side
            groups,
            draw(st.integers(1, 2)),                # stride
        )
    density = draw(st.sampled_from([1.0, 0.5, 0.1]))
    seed = draw(st.integers(0, 2**16))
    return fabric, num_ms, kind, shape, density, seed


def _operand(rng, shape, density):
    values = rng.standard_normal(shape).astype(np.float32)
    return values * (rng.random(shape) < density)


@given(layers())
@settings(max_examples=80, deadline=None)
def test_compute_busy_covers_the_multiplications(case):
    fabric, num_ms, kind, shape, density, seed = case
    rng = np.random.default_rng(seed)
    acc = Accelerator(
        _FABRICS[fabric](num_ms),
        observability=Observability.create(stalls=True),
    )
    if kind == "gemm":
        m, k, n = shape
        acc.run_gemm(_operand(rng, (m, k), density),
                     rng.standard_normal((k, n)).astype(np.float32))
    else:
        channels, filters, side, size, groups, stride = shape
        acc.run_conv(
            _operand(rng, (filters, channels // groups, side, side), density),
            rng.standard_normal((1, channels, size, size)).astype(np.float32),
            stride=stride, groups=groups,
        )
    (layer,) = acc.report.layers
    if layer.macs == 0:
        return  # an all-zero stationary operand on the sparse fabric
    busy = max(
        buckets.get("compute_busy", 0)
        for buckets in layer.extra["stalls"].values()
    )
    assert busy >= math.ceil(layer.macs / acc.config.num_ms), (
        layer.macs, layer.cycles, layer.extra["stalls"]
    )
