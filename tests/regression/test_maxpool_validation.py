"""``run_maxpool`` rejects malformed input with a typed error, up front.

It used to leak whatever the arithmetic underneath raised: a non-4-D
input died unpacking its shape (bare ``ValueError``), ``pool=0`` divided
by zero through ``stride = stride or pool``, a negative ``pool`` or
``stride`` was reported as a *convolution* with a "filter -2x-2", and a
non-integer one (``pool=2.0``) raised a bare ``TypeError``. The
shared front half now validates once — before the layer window opens or
a counter moves — so the accelerator and the parallel runner's recorder
reject the same inputs with the same text.
"""

import numpy as np
import pytest

from repro.config import maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.frontend.layers import MaxPool2d
from repro.frontend.module import Sequential
from repro.observability import Observability
from repro.parallel import record_model

CONFIGS = {
    "tpu": tpu_like(num_pes=16),
    "maeri": maeri_like(num_ms=32, bandwidth=8),
    "sigma": sigma_like(num_ms=32, bandwidth=16),
}

#: (input shape, pool, stride, what the message must name)
BAD_INPUTS = [
    pytest.param((3, 8, 8), 2, None, "(3, 8, 8)", id="3d-input"),
    pytest.param((1, 2, 3, 8, 8), 2, None, "(1, 2, 3, 8, 8)", id="5d-input"),
    pytest.param((1, 2, 8, 8), 0, None, "pool=0", id="pool-0"),
    pytest.param((1, 2, 8, 8), -2, None, "pool=-2", id="pool-negative"),
    pytest.param((1, 2, 8, 8), 2, -2, "stride=-2", id="stride-negative"),
    pytest.param((1, 2, 8, 8), 2, 0, "stride=0", id="stride-0"),
    pytest.param((1, 2, 4, 3), 4, None, "4x4", id="window-too-large"),
    # non-integer pool / stride used to escape as a bare TypeError
    pytest.param((1, 2, 8, 8), 2.0, None, "pool=2.0", id="pool-float"),
    pytest.param((1, 2, 8, 8), "2", None, "pool='2'", id="pool-str"),
    pytest.param((1, 2, 8, 8), 2, 1.5, "stride=1.5", id="stride-float"),
    pytest.param((1, 2, 8, 8), np.float32(2), None, "pool=", id="pool-np-float"),
    # an empty batch or channel axis used to time a 4-cycle layer with
    # no outputs, where run_conv rejects it
    pytest.param((0, 4, 4, 4), 2, None, "(0, 4, 4, 4)", id="empty-batch"),
    pytest.param((2, 0, 4, 4), 2, None, "(2, 0, 4, 4)", id="empty-channels"),
]


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("shape,pool,stride,named", BAD_INPUTS)
def test_accelerator_rejects_before_touching_anything(
    arch, shape, pool, stride, named
):
    obs = Observability.create(trace=True, stalls=True, fabric=True)
    acc = Accelerator(CONFIGS[arch], observability=obs)
    with pytest.raises(ConfigurationError, match="maxpool") as caught:
        acc.run_maxpool(np.ones(shape, dtype=np.float32), pool, stride)
    assert named in str(caught.value)
    assert acc.report.layers == []
    assert obs.tracer.events == []
    assert not any(c.counters.as_dict() for c in acc.components)
    # still usable: the rejected call left no half-open layer behind
    acc.run_maxpool(np.ones((1, 2, 4, 4), dtype=np.float32), 2)
    assert [layer.kind for layer in acc.report.layers] == ["maxpool"]


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("shape,pool,stride,named", BAD_INPUTS)
def test_recorder_rejects_with_the_same_text(arch, shape, pool, stride, named):
    x = np.ones(shape, dtype=np.float32)
    with pytest.raises(ConfigurationError) as direct:
        Accelerator(CONFIGS[arch]).run_maxpool(x, pool, stride)

    layer = MaxPool2d(2, name="pool")
    layer.pool, layer.stride = pool, stride  # past the constructor's default
    with pytest.raises(ConfigurationError) as recorded:
        record_model(Sequential(layer), x, CONFIGS[arch])
    assert str(recorded.value) == str(direct.value)
    assert named in str(recorded.value)


@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_numpy_integer_pool_and_stride_are_the_plain_int_layer(arch):
    x = np.arange(2 * 3 * 8 * 8, dtype=np.float32).reshape(2, 3, 8, 8)
    reference = Accelerator(CONFIGS[arch])
    expected = reference.run_maxpool(x, 2, 2)
    acc = Accelerator(CONFIGS[arch])
    output = acc.run_maxpool(x, np.int64(2), np.int32(2))
    assert output.tobytes() == expected.tobytes()
    assert [layer.to_payload() for layer in acc.report.layers] == [
        layer.to_payload() for layer in reference.report.layers
    ]
