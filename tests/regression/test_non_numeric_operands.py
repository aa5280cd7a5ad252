"""``Accelerator.run_*`` reject non-numeric operands with a typed error.

A string or ragged operand used to leak NumPy's builtin ``ValueError``
("could not convert string to float", "inhomogeneous shape") out of
``np.asarray(..., dtype=np.float32)`` in ``run_conv``, ``run_gemm``,
``run_spmm`` and ``run_maxpool``; a dict leaked a ``TypeError``. When a
conversion in the shared front end fails, one helper now turns it into
a ``ConfigurationError`` naming the operation and the operand, before
the layer window opens.
"""

import numpy as np
import pytest

from repro.config import maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.observability import Observability

CONFIGS = {
    "tpu": lambda: tpu_like(num_pes=16),
    "maeri": lambda: maeri_like(num_ms=32, bandwidth=8),
    "sigma": lambda: sigma_like(num_ms=32, bandwidth=16),
}

#: an operand NumPy cannot read as float32, by how it fails
BAD = {
    "string": lambda shape: np.full(shape, "x").tolist(),
    "ragged": lambda shape: [np.ones(shape[1:]).tolist(), [1.0]],
    "dict": lambda shape: [{"a": 1}] * shape[0],
}

WEIGHTS = np.ones((4, 2, 3, 3), dtype=np.float32)
INPUTS = np.ones((1, 2, 6, 6), dtype=np.float32)
A = np.ones((4, 8), dtype=np.float32)
B = np.ones((8, 3), dtype=np.float32)

#: entry point -> (operand name, call given the bad operand)
CALLS = {
    "conv-weights": ("conv operand weights",
                     lambda acc, bad: acc.run_conv(bad(WEIGHTS.shape), INPUTS)),
    "conv-activations": ("conv operand activations",
                         lambda acc, bad: acc.run_conv(WEIGHTS, bad(INPUTS.shape))),
    "gemm-a": ("gemm operand a", lambda acc, bad: acc.run_gemm(bad(A.shape), B)),
    "gemm-b": ("gemm operand b", lambda acc, bad: acc.run_gemm(A, bad(B.shape))),
    "maxpool": ("maxpool operand activations",
                lambda acc, bad: acc.run_maxpool(bad(INPUTS.shape), 2)),
}
SPMM_CALLS = {
    "spmm-a": ("spmm operand a", lambda acc, bad: acc.run_spmm(bad(A.shape), B)),
    "spmm-b": ("spmm operand b", lambda acc, bad: acc.run_spmm(A, bad(B.shape))),
}


def _untouched(acc, obs):
    return (
        acc.report.layers == []
        and obs.tracer.events == []
        and not any(c.counters.as_dict() for c in acc.components)
    )


def _check(arch, call, kind):
    named, run = call
    obs = Observability.create(trace=True, stalls=True, fabric=True)
    acc = Accelerator(CONFIGS[arch](), observability=obs)
    with pytest.raises(ConfigurationError) as caught:
        run(acc, BAD[kind])
    assert str(caught.value).startswith(f"{named} must be a numeric array")
    assert _untouched(acc, obs)
    # still usable: the rejected call left no half-open layer behind
    run(acc, lambda shape: np.ones(shape, dtype=np.float32))
    assert len(acc.report.layers) == 1


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_dense_entry_points_name_the_operand(arch, call, kind):
    _check(arch, CALLS[call], kind)


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("call", sorted(SPMM_CALLS))
def test_spmm_names_the_operand(call, kind):
    _check("sigma", SPMM_CALLS[call], kind)


def test_numeric_lists_and_other_dtypes_are_still_read():
    reference = Accelerator(CONFIGS["sigma"]())
    expected = reference.run_gemm(A, B)
    acc = Accelerator(CONFIGS["sigma"]())
    output = acc.run_gemm(A.astype(np.int64).tolist(), B.astype(np.float64))
    assert output.tobytes() == expected.tobytes()
    assert [layer.to_payload() for layer in acc.report.layers] == [
        layer.to_payload() for layer in reference.report.layers
    ]
