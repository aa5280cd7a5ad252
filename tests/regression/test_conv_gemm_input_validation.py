"""``run_conv`` / ``run_gemm`` reject malformed parameters with a typed error.

Each case leaked before: ``padding=-1`` died inside NumPy's pad
(``ValueError: could not broadcast ...``), ``padding=1.5`` was reported
against ``ConvLayerSpec.x`` (``got 9.0``) instead of the parameter given,
a NumPy-integer ``stride`` / ``padding`` was refused as a non-int layer
field, and a ``tile`` that is not a :class:`TileConfig` raised
``AttributeError`` on MAERI and was silently ignored on the systolic
array. The shared front half now checks ``stride`` and ``padding`` with
``operator.index`` and the type of ``tile`` once, before the layer window
opens, so the accelerator and the parallel runner's recorder reject the
same inputs with the same ``ConfigurationError`` text.
"""

import numpy as np
import pytest

from repro.config import TileConfig, maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.frontend.layers import Conv2d
from repro.frontend.module import Sequential
from repro.observability import Observability
from repro.parallel import record_model

CONFIGS = {
    "tpu": tpu_like(num_pes=16),
    "maeri": maeri_like(num_ms=32, bandwidth=8),
    "sigma": sigma_like(num_ms=32, bandwidth=16),
}

WEIGHTS = np.ones((4, 2, 3, 3), dtype=np.float32)
INPUTS = np.ones((1, 2, 6, 6), dtype=np.float32)

#: (stride, padding, what the message must name)
BAD_CONV_PARAMS = [
    pytest.param(1, -1, "padding=-1", id="padding-negative"),
    pytest.param(1, 1.5, "padding=1.5", id="padding-float"),
    pytest.param(1, "1", "padding='1'", id="padding-str"),
    pytest.param(1.5, 0, "stride=1.5", id="stride-float"),
    pytest.param(np.float64(2), 0, "stride=", id="stride-np-float"),
    pytest.param(None, 0, "stride=None", id="stride-none"),
]

#: (groups, what the message must name); a float group count used to be
#: blamed on ``ConvLayerSpec.k``, the others on a "group mismatch"
BAD_GROUPS = [
    pytest.param(2.0, "groups=2.0", id="groups-float"),
    pytest.param(np.float64(2), "groups=", id="groups-np-float"),
    pytest.param("2", "groups='2'", id="groups-str"),
    pytest.param(None, "groups=None", id="groups-none"),
    pytest.param(0, "groups=0", id="groups-0"),
    pytest.param(-2, "groups=-2", id="groups-negative"),
]

BAD_TILES = [
    pytest.param((1, 1, 2, 1, 2, 1, 1, 1), id="tuple"),
    pytest.param("x", id="str"),
    pytest.param({"t_c": 2}, id="dict"),
]


def _untouched(acc, obs):
    return (
        acc.report.layers == []
        and obs.tracer.events == []
        and not any(c.counters.as_dict() for c in acc.components)
    )


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("stride,padding,named", BAD_CONV_PARAMS)
def test_conv_rejects_bad_stride_or_padding_up_front(
    arch, stride, padding, named
):
    obs = Observability.create(trace=True, stalls=True, fabric=True)
    acc = Accelerator(CONFIGS[arch], observability=obs)
    with pytest.raises(ConfigurationError) as caught:
        acc.run_conv(WEIGHTS, INPUTS, stride=stride, padding=padding)
    message = str(caught.value)
    assert message.startswith("conv ") and named in message
    assert _untouched(acc, obs)
    # still usable: the rejected call left no half-open layer behind
    acc.run_conv(WEIGHTS, INPUTS, padding=1)
    assert [layer.kind for layer in acc.report.layers] == ["conv"]


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("groups,named", BAD_GROUPS)
def test_conv_rejects_bad_groups_up_front(arch, groups, named):
    obs = Observability.create(trace=True, stalls=True, fabric=True)
    acc = Accelerator(CONFIGS[arch], observability=obs)
    with pytest.raises(ConfigurationError) as caught:
        acc.run_conv(WEIGHTS[:, :1], INPUTS, groups=groups)
    message = str(caught.value)
    assert message.startswith("conv ") and named in message
    assert _untouched(acc, obs)
    # still usable, and an integer group count is taken as before
    acc.run_conv(WEIGHTS[:, :1], INPUTS, groups=np.int64(2))
    assert [layer.kind for layer in acc.report.layers] == ["conv"]


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("tile", BAD_TILES)
def test_conv_and_gemm_reject_a_tile_that_is_not_a_tileconfig(arch, tile):
    obs = Observability.create(trace=True, stalls=True, fabric=True)
    acc = Accelerator(CONFIGS[arch], observability=obs)
    with pytest.raises(ConfigurationError, match="tile must be a TileConfig"):
        acc.run_conv(WEIGHTS, INPUTS, tile=tile)
    with pytest.raises(ConfigurationError, match="tile must be a TileConfig"):
        acc.run_gemm(np.ones((4, 8), np.float32), np.ones((8, 3), np.float32),
                     tile=tile)
    assert _untouched(acc, obs)


@pytest.mark.parametrize("arch", sorted(CONFIGS))
def test_numpy_integer_stride_and_padding_are_the_plain_int_layer(arch):
    reference = Accelerator(CONFIGS[arch])
    expected = reference.run_conv(WEIGHTS, INPUTS, stride=2, padding=1)
    acc = Accelerator(CONFIGS[arch])
    output = acc.run_conv(
        WEIGHTS, INPUTS, stride=np.int64(2), padding=np.int32(1)
    )
    assert output.tobytes() == expected.tobytes()
    assert [layer.to_payload() for layer in acc.report.layers] == [
        layer.to_payload() for layer in reference.report.layers
    ]


def test_a_tileconfig_is_still_accepted():
    acc = Accelerator(CONFIGS["maeri"])
    acc.run_conv(WEIGHTS, INPUTS, tile=TileConfig(t_c=2, t_k=4))
    acc.run_gemm(np.ones((4, 8), np.float32), np.ones((8, 3), np.float32),
                 tile=TileConfig(t_c=8, t_k=4))
    assert [layer.kind for layer in acc.report.layers] == ["conv", "gemm"]


@pytest.mark.parametrize("arch", sorted(CONFIGS))
@pytest.mark.parametrize("stride,padding,named", BAD_CONV_PARAMS)
def test_recorder_rejects_with_the_same_text(arch, stride, padding, named):
    with pytest.raises(ConfigurationError) as direct:
        Accelerator(CONFIGS[arch]).run_conv(
            WEIGHTS, INPUTS, stride=stride, padding=padding
        )
    layer = Conv2d(2, 4, 3, bias=False, name="c1",
                   rng=np.random.default_rng(0))
    layer.stride, layer.padding = stride, padding  # past the constructor
    with pytest.raises(ConfigurationError) as recorded:
        record_model(Sequential(layer), INPUTS, CONFIGS[arch])
    assert str(recorded.value) == str(direct.value)
    assert named in str(recorded.value)
