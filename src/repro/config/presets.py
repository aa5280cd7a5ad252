"""The reference accelerators of Table IV.

===================  ========  ==========  ==========
Component            TPU-like  MAERI-like  SIGMA-like
===================  ========  ==========  ==========
Memory Controller    Dense     Dense       Sparse
Distribution Net     PoPN      TN          BN
Multiplier Net       LMN       LMN         DMN
Reduce Net           LRN       ART         FAN
===================  ========  ==========  ==========
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.config.hardware import (
    ControllerKind,
    Dataflow,
    DistributionKind,
    HardwareConfig,
    MultiplierKind,
    ReductionKind,
)
from repro.errors import ConfigurationError


def tpu_like(
    num_pes: int = 256, bandwidth: Optional[int] = None, **overrides
) -> HardwareConfig:
    """A TPU-like output-stationary systolic array.

    ``num_pes`` must be a perfect square (the PE grid). The paper always
    runs the TPU with full bandwidth, which is the default here.
    """
    if bandwidth is None:
        bandwidth = num_pes
    kwargs = dict(
        num_ms=num_pes,
        dn_bandwidth=bandwidth,
        rn_bandwidth=bandwidth,
        controller=ControllerKind.DENSE,
        distribution=DistributionKind.POINT_TO_POINT,
        multiplier=MultiplierKind.LINEAR,
        reduction=ReductionKind.LINEAR,
        dataflow=Dataflow.OUTPUT_STATIONARY,
        name="tpu-like",
    )
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


def maeri_like(num_ms: int = 256, bandwidth: int = 128, **overrides) -> HardwareConfig:
    """A MAERI-like flexible dense accelerator (TN + LMN + ART)."""
    kwargs = dict(
        num_ms=num_ms,
        dn_bandwidth=bandwidth,
        rn_bandwidth=bandwidth,
        controller=ControllerKind.DENSE,
        distribution=DistributionKind.TREE,
        multiplier=MultiplierKind.LINEAR,
        reduction=ReductionKind.ART,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        name="maeri-like",
    )
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


def sigma_like(num_ms: int = 256, bandwidth: int = 128, **overrides) -> HardwareConfig:
    """A SIGMA-like flexible sparse accelerator (BN + DMN + FAN)."""
    kwargs = dict(
        num_ms=num_ms,
        dn_bandwidth=bandwidth,
        rn_bandwidth=bandwidth,
        controller=ControllerKind.SPARSE,
        distribution=DistributionKind.BENES,
        multiplier=MultiplierKind.DISABLED,
        reduction=ReductionKind.FAN,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        name="sigma-like",
    )
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


def eyeriss_like(num_ms: int = 256, bandwidth: int = 64, **overrides) -> HardwareConfig:
    """An Eyeriss-style rigid accelerator approximation.

    Eyeriss couples a multicast on-chip network with per-PE linear
    accumulation; within STONNE's taxonomy (Section IV-A) that composes as
    a Tree DN + Linear MN + Linear RN with a dense weight-stationary
    controller. Its row-stationary dataflow proper is richer than the
    three stationary dataflows the paper's controller implements; this
    preset captures the rigid-fabric/linear-reduction character the
    paper's taxonomy table assigns Eyeriss.
    """
    kwargs = dict(
        num_ms=num_ms,
        dn_bandwidth=bandwidth,
        rn_bandwidth=bandwidth,
        controller=ControllerKind.DENSE,
        distribution=DistributionKind.TREE,
        multiplier=MultiplierKind.LINEAR,
        reduction=ReductionKind.LINEAR,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        name="eyeriss-like",
    )
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


def snapea_like(num_ms: int = 64, bandwidth: int = 64, **overrides) -> HardwareConfig:
    """The SNAPEA configuration of use case 2 (dense OS fabric, 64 PEs).

    SNAPEA itself is the dense architecture plus the early-termination
    memory controller; the controller swap happens in
    :mod:`repro.opts.snapea`, so the base hardware here is a dense
    MAERI-style fabric sized like the SNAPEA paper's 64-MAC design.
    """
    kwargs = dict(
        num_ms=num_ms,
        dn_bandwidth=bandwidth,
        rn_bandwidth=bandwidth,
        controller=ControllerKind.SNAPEA,
        distribution=DistributionKind.TREE,
        multiplier=MultiplierKind.LINEAR,
        reduction=ReductionKind.ART,
        dataflow=Dataflow.OUTPUT_STATIONARY,
        name="snapea-like",
    )
    kwargs.update(overrides)
    return HardwareConfig(**kwargs)


_PRESETS: Dict[str, Callable[..., HardwareConfig]] = {
    "tpu": tpu_like,
    "maeri": maeri_like,
    "sigma": sigma_like,
    "eyeriss": eyeriss_like,
}


def preset(
    arch: str, num_ms: int = 256, bandwidth: Optional[int] = None
) -> HardwareConfig:
    """The named Table IV preset at ``num_ms`` multipliers.

    ``bandwidth=None`` is full bandwidth on the TPU and half the
    multipliers (at least 1) on every other fabric.
    """
    if arch not in _PRESETS:
        raise ConfigurationError(
            f"unknown architecture {arch!r}; choose from {sorted(_PRESETS)}"
        )
    if bandwidth is None and arch != "tpu":
        bandwidth = max(1, num_ms // 2)
    return _PRESETS[arch](num_ms, bandwidth)
