"""Layer zoo.

Every compute-intensive layer consults ``self.context``: with no context
attached it runs natively through :mod:`repro.frontend.functional`; with a
:class:`~repro.frontend.simulated.SimulationContext` it offloads to the
simulated accelerator, mirroring the paper's ``Simulated*`` operations
(Fig. 2d). Cheap operations (activations, normalization, softmax) always
run natively, "as it would be done in a real scenario".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.layer import LayerKind
from repro.errors import ConfigurationError
from repro.frontend import functional as F
from repro.frontend.module import Module, Parameter

_DEFAULT_RNG = np.random.default_rng(1234)


def _rng_or_default(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else _DEFAULT_RNG


class Conv2d(Module):
    """2-D convolution with optional grouping (factorized convolutions)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        kind: LayerKind = LayerKind.CONV,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name or "conv2d")
        if in_channels % groups or out_channels % groups:
            raise ConfigurationError(
                f"channels ({in_channels}->{out_channels}) must divide groups "
                f"({groups})"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.kind = kind
        rng = _rng_or_default(rng)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        # Kaiming-scaled weights with a small negative mean (~0.4 sigma of
        # the resulting pre-activation distribution): trained ReLU CNNs
        # exhibit 50-80 % post-activation sparsity, and synthetic symmetric
        # weights would not — this shift reproduces that data property,
        # which data-dependent optimizations like SNAPEA depend on.
        shift = 0.55 / np.sqrt(fan_in)
        # Trained filters differ widely in norm; a lognormal per-filter
        # scale reproduces that, and with it the per-filter *effective
        # size* variance after magnitude pruning that the paper's Fig. 7b
        # shows and its filter-scheduling study (use case 3) exploits.
        filter_scale = np.exp(0.5 * rng.standard_normal((out_channels, 1, 1, 1)))
        self.weight = Parameter(
            (
                rng.standard_normal(
                    (out_channels, in_channels // groups, kernel_size, kernel_size)
                )
                - shift
            )
            * scale
            * filter_scale
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.context is not None:
            out = self.context.conv(self, x)
        else:
            out = F.conv2d(
                x, self.weight.data, None, self.stride, self.padding, self.groups
            )
        if self.bias is not None:
            out = out + self.bias.data[None, :, None, None]
        return out.astype(np.float32, copy=False)


class Linear(Module):
    """Fully-connected layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        kind: LayerKind = LayerKind.LINEAR,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name or "linear")
        self.in_features = in_features
        self.out_features = out_features
        self.kind = kind
        rng = _rng_or_default(rng)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.standard_normal((out_features, in_features)) * scale
        )
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.context is not None:
            out = self.context.linear(self, x)
        else:
            out = F.linear(x, self.weight.data, None)
        if self.bias is not None:
            out = out + self.bias.data
        return out.astype(np.float32, copy=False)


class MaxPool2d(Module):
    def __init__(self, pool: int, stride: Optional[int] = None, name: str = "") -> None:
        super().__init__(name or "maxpool2d")
        self.pool = pool
        self.stride = stride or pool
        self.kind = LayerKind.POOL

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.context is not None:
            return self.context.maxpool(self, x)
        return F.maxpool2d(x, self.pool, self.stride)


class AvgPool2d(Module):
    """Average pooling; ``pool=None`` means global average pooling."""

    def __init__(self, pool: Optional[int] = None, name: str = "") -> None:
        super().__init__(name or "avgpool2d")
        self.pool = pool
        self.kind = LayerKind.POOL

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.pool is None:
            return F.global_avgpool2d(x)
        return F.avgpool2d(x, self.pool)


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)


class Softmax(Module):
    def __init__(self, axis: int = -1, name: str = "") -> None:
        super().__init__(name or "softmax")
        self.axis = axis

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.softmax(x, self.axis)


class LogSoftmax(Module):
    def __init__(self, axis: int = -1, name: str = "") -> None:
        super().__init__(name or "log_softmax")
        self.axis = axis

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.log_softmax(x, self.axis)


class Flatten(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(x.reshape(x.shape[0], -1))


class BatchNorm2d(Module):
    """Inference-mode batch normalization with synthetic statistics."""

    def __init__(
        self,
        channels: int,
        name: str = "",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name or "batchnorm2d")
        rng = _rng_or_default(rng)
        self.channels = channels
        self.gamma = Parameter(np.ones(channels) + 0.05 * rng.standard_normal(channels))
        self.beta = Parameter(0.05 * rng.standard_normal(channels))
        self.running_mean = Parameter(0.1 * rng.standard_normal(channels))
        self.running_var = Parameter(np.abs(1.0 + 0.1 * rng.standard_normal(channels)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.batchnorm2d(
            x,
            self.running_mean.data,
            self.running_var.data,
            self.gamma.data,
            self.beta.data,
        )


class LayerNorm(Module):
    """Layer normalization over the last dimension (transformers)."""

    def __init__(self, features: int, name: str = "") -> None:
        super().__init__(name or "layernorm")
        self.features = features
        self.gamma = Parameter(np.ones(features))
        self.beta = Parameter(np.zeros(features))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.layernorm(x, self.gamma.data, self.beta.data)
