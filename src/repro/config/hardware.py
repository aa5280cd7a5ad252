"""Hardware configuration: the ``stonne_hw.cfg`` equivalent.

A :class:`HardwareConfig` selects one building block per fabric tier
(Fig. 3b of the paper) and sizes the memory hierarchy. Configurations can
be written to / read from an INI-style ``.cfg`` file with the same section
layout the original simulator uses (``[MSNetwork]``, ``[DSNetwork]``,
``[ReduceNetwork]``, ``[SDMemory]``), so hardware descriptions live outside
the code exactly as in the paper's Fig. 2(d) walk-through.
"""

from __future__ import annotations

import configparser
import enum
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Union

from repro.errors import ConfigurationError


class DistributionKind(enum.Enum):
    """Distribution-network building blocks (paper Section IV-A-1)."""

    TREE = "TN"
    BENES = "BN"
    POINT_TO_POINT = "PoPN"

    @property
    def supports_multicast(self) -> bool:
        """Tree and Benes fabrics deliver one value to many multipliers in
        a single cycle; the point-to-point fabric is unicast only."""
        return self is not DistributionKind.POINT_TO_POINT


class MultiplierKind(enum.Enum):
    """Multiplier-network building blocks (paper Section IV-A-2)."""

    LINEAR = "LMN"
    DISABLED = "DMN"

    @property
    def has_forwarding_links(self) -> bool:
        """The linear MN forwards operands between neighbouring multiplier
        switches to exploit convolution sliding-window reuse."""
        return self is MultiplierKind.LINEAR


class ReductionKind(enum.Enum):
    """Reduction-network building blocks (paper Section IV-A-3)."""

    RT = "RT"
    ART = "ART"
    ART_ACC = "ART+ACC"
    FAN = "FAN"
    LINEAR = "LRN"

    @property
    def supports_variable_clusters(self) -> bool:
        """ART and FAN create arbitrary-size virtual reduction clusters over
        one physical substrate; RT and LRN reduce fixed clusters."""
        return self in (ReductionKind.ART, ReductionKind.ART_ACC, ReductionKind.FAN)

    @property
    def adder_inputs(self) -> int:
        """Fan-in of the adder switches (ART uses 3:1 adders, FAN 2:1)."""
        return 3 if self in (ReductionKind.ART, ReductionKind.ART_ACC) else 2

    @property
    def has_accumulation_buffer(self) -> bool:
        return self is ReductionKind.ART_ACC


class ControllerKind(enum.Enum):
    """Memory-controller building blocks (paper Section IV-B)."""

    DENSE = "DC"
    SPARSE = "SC"
    SNAPEA = "SNAPEA"


class Dataflow(enum.Enum):
    """Stationary dataflows implemented by the dense controller."""

    WEIGHT_STATIONARY = "WS"
    OUTPUT_STATIONARY = "OS"
    INPUT_STATIONARY = "IS"


class EngineMode(enum.Enum):
    """Ignored; removed together with the hash regeneration in its own PR.

    Nothing in the simulator reads it. The field and its three members
    stay only because ``HardwareConfig.engine_mode`` is hashed into
    ``config_hash``, every cache key and the committed registry
    baseline, and benchmark harnesses still set it.
    """

    CYCLE = "cycle"
    VECTOR = "vector"
    AUTO = "auto"


class SparseFormat(enum.Enum):
    """Compression formats accepted by the sparse controller."""

    BITMAP = "bitmap"
    CSR = "csr"


class DataType(enum.Enum):
    """Datatypes affecting energy/area tables and buffer capacity."""

    FP8 = "fp8"
    INT8 = "int8"
    FP16 = "fp16"
    FP32 = "fp32"

    @property
    def bytes_per_element(self) -> int:
        return {"fp8": 1, "int8": 1, "fp16": 2, "fp32": 4}[self.value]


@dataclass(frozen=True)
class DramConfig:
    """Off-chip memory parameters (the paper uses two 256 GB/s HBM2 stacks).

    The model is deliberately first-order — bandwidth, a fixed access
    latency, and a row-buffer locality bonus — because the evaluation's
    effects are dominated by on-chip bandwidth (see DESIGN.md).
    """

    bandwidth_gbps: float = 512.0
    size_mb: int = 1024
    access_latency_cycles: int = 100
    row_buffer_bytes: int = 2048
    row_hit_latency_cycles: int = 20

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigurationError("DRAM bandwidth must be positive")
        if self.size_mb <= 0:
            raise ConfigurationError("DRAM size must be positive")
        if self.access_latency_cycles < 1 or self.row_hit_latency_cycles < 1:
            raise ConfigurationError("DRAM latencies must be >= 1 cycle")
        if self.row_hit_latency_cycles > self.access_latency_cycles:
            raise ConfigurationError("row hit latency cannot exceed miss latency")


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HardwareConfig:
    """Complete description of one simulated accelerator instance.

    The defaults correspond to the paper's common use-case parameters:
    28 nm, 1 GHz, FP8 data, 108-KB Global Buffer, HBM2 DRAM.
    """

    num_ms: int = 256
    dn_bandwidth: int = 128
    rn_bandwidth: int = 128
    controller: ControllerKind = ControllerKind.DENSE
    distribution: DistributionKind = DistributionKind.TREE
    multiplier: MultiplierKind = MultiplierKind.LINEAR
    reduction: ReductionKind = ReductionKind.ART
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY
    sparse_format: SparseFormat = SparseFormat.BITMAP
    dtype: DataType = DataType.FP8
    gb_size_kb: int = 108
    gb_banks: int = 8
    ms_fifo_depth: int = 4
    dn_fifo_depth: int = 4
    rn_fifo_depth: int = 2
    accumulation_buffer: bool = True
    #: ignored; removed together with the hash regeneration in its own PR
    engine_mode: EngineMode = EngineMode.AUTO
    clock_ghz: float = 1.0
    technology_nm: int = 28
    dram: DramConfig = field(default_factory=DramConfig)
    name: str = "custom"

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.num_ms):
            raise ConfigurationError(
                f"num_ms must be a power of two for tree-based fabrics, got {self.num_ms}"
            )
        if self.num_ms < 2:
            raise ConfigurationError("num_ms must be at least 2")
        if not 1 <= self.dn_bandwidth <= self.num_ms:
            raise ConfigurationError(
                f"dn_bandwidth must be in [1, num_ms], got {self.dn_bandwidth}"
            )
        if not 1 <= self.rn_bandwidth <= self.num_ms:
            raise ConfigurationError(
                f"rn_bandwidth must be in [1, num_ms], got {self.rn_bandwidth}"
            )
        if self.gb_size_kb < 1:
            raise ConfigurationError("gb_size_kb must be >= 1")
        if self.gb_banks < 1:
            raise ConfigurationError("gb_banks must be >= 1")
        for fifo_name in ("ms_fifo_depth", "dn_fifo_depth", "rn_fifo_depth"):
            if getattr(self, fifo_name) < 1:
                raise ConfigurationError(f"{fifo_name} must be >= 1")
        if self.clock_ghz <= 0:
            raise ConfigurationError("clock_ghz must be positive")
        if self.technology_nm not in (7, 14, 16, 22, 28, 45, 65):
            raise ConfigurationError(
                f"no energy/area table for technology node {self.technology_nm} nm"
            )
        self._check_compatibility()

    def _check_compatibility(self) -> None:
        """Reject block combinations the paper's taxonomy cannot realize."""
        if self.controller is ControllerKind.SPARSE:
            if not self.distribution.supports_multicast:
                raise ConfigurationError(
                    "the sparse controller needs a multicast-capable DN "
                    "(Tree or Benes), not point-to-point"
                )
            if not self.reduction.supports_variable_clusters:
                raise ConfigurationError(
                    "the sparse controller needs variable-size reduction "
                    "clusters (ART or FAN)"
                )
        if (
            self.distribution is DistributionKind.POINT_TO_POINT
            and self.reduction not in (ReductionKind.LINEAR, ReductionKind.RT)
        ):
            raise ConfigurationError(
                "a point-to-point (systolic) DN pairs with a linear or fixed "
                "reduction network, not a flexible one"
            )

    @property
    def systolic_dim(self) -> int:
        """Side of the square PE array for systolic (PoPN) configurations."""
        root = int(round(self.num_ms ** 0.5))
        if root * root != self.num_ms:
            raise ConfigurationError(
                f"systolic configuration needs a square PE count, got {self.num_ms}"
            )
        return root

    @property
    def is_systolic(self) -> bool:
        return self.distribution is DistributionKind.POINT_TO_POINT

    @property
    def is_sparse(self) -> bool:
        return self.controller in (ControllerKind.SPARSE,)

    @property
    def gb_capacity_elements(self) -> int:
        return self.gb_size_kb * 1024 // self.dtype.bytes_per_element

    def with_updates(self, **kwargs) -> "HardwareConfig":
        """Return a modified copy; used for parameter sweeps."""
        return replace(self, **kwargs)


_SECTION_GENERAL = "General"
_SECTION_MS = "MSNetwork"
_SECTION_DS = "DSNetwork"
_SECTION_RN = "ReduceNetwork"
_SECTION_MEM = "SDMemory"
_SECTION_DRAM = "DRAM"


def save_config(config: HardwareConfig, path: Union[str, Path]) -> None:
    """Write ``config`` as an INI-style ``.cfg`` file."""
    parser = configparser.ConfigParser()
    parser[_SECTION_GENERAL] = {
        "name": config.name,
        "dtype": config.dtype.value,
        "clock_ghz": str(config.clock_ghz),
        "technology_nm": str(config.technology_nm),
        "dataflow": config.dataflow.value,
        "engine_mode": config.engine_mode.value,
    }
    parser[_SECTION_MS] = {
        "type": config.multiplier.value,
        "ms_size": str(config.num_ms),
        "fifo_depth": str(config.ms_fifo_depth),
    }
    parser[_SECTION_DS] = {
        "type": config.distribution.value,
        "bandwidth": str(config.dn_bandwidth),
        "fifo_depth": str(config.dn_fifo_depth),
    }
    parser[_SECTION_RN] = {
        "type": config.reduction.value,
        "bandwidth": str(config.rn_bandwidth),
        "fifo_depth": str(config.rn_fifo_depth),
        "accumulation_buffer": str(int(config.accumulation_buffer)),
    }
    parser[_SECTION_MEM] = {
        "controller": config.controller.value,
        "gb_size_kb": str(config.gb_size_kb),
        "gb_banks": str(config.gb_banks),
        "sparse_format": config.sparse_format.value,
    }
    parser[_SECTION_DRAM] = {
        "bandwidth_gbps": str(config.dram.bandwidth_gbps),
        "size_mb": str(config.dram.size_mb),
        "access_latency_cycles": str(config.dram.access_latency_cycles),
        "row_buffer_bytes": str(config.dram.row_buffer_bytes),
        "row_hit_latency_cycles": str(config.dram.row_hit_latency_cycles),
    }
    try:
        with open(path, "w", encoding="utf-8") as handle:
            parser.write(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write configuration file {path}: {exc}"
        ) from exc


def _enum_by_value(enum_cls, value: str, what: str):
    for member in enum_cls:
        if member.value.lower() == value.lower():
            return member
    valid = ", ".join(member.value for member in enum_cls)
    raise ConfigurationError(f"unknown {what} {value!r}; expected one of: {valid}")


def parse_config(text: str) -> HardwareConfig:
    """Parse a ``.cfg`` document into a :class:`HardwareConfig`.

    Missing sections or keys fall back to the dataclass defaults so partial
    files (e.g. only overriding the MS count) are valid, mirroring the
    original tool's behaviour.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed configuration file: {exc}") from exc

    defaults = HardwareConfig()
    kwargs = {}

    def read(section: str, key: str, fallback):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return fallback

    try:
        kwargs["name"] = read(_SECTION_GENERAL, "name", defaults.name)
        kwargs["dtype"] = _enum_by_value(
            DataType, read(_SECTION_GENERAL, "dtype", defaults.dtype.value), "dtype"
        )
        kwargs["clock_ghz"] = float(
            read(_SECTION_GENERAL, "clock_ghz", defaults.clock_ghz)
        )
        kwargs["technology_nm"] = int(
            read(_SECTION_GENERAL, "technology_nm", defaults.technology_nm)
        )
        kwargs["dataflow"] = _enum_by_value(
            Dataflow, read(_SECTION_GENERAL, "dataflow", defaults.dataflow.value), "dataflow"
        )
        kwargs["engine_mode"] = _enum_by_value(
            EngineMode,
            read(_SECTION_GENERAL, "engine_mode", defaults.engine_mode.value),
            "engine mode",
        )
        kwargs["multiplier"] = _enum_by_value(
            MultiplierKind, read(_SECTION_MS, "type", defaults.multiplier.value), "MN type"
        )
        kwargs["num_ms"] = int(read(_SECTION_MS, "ms_size", defaults.num_ms))
        kwargs["ms_fifo_depth"] = int(
            read(_SECTION_MS, "fifo_depth", defaults.ms_fifo_depth)
        )
        kwargs["distribution"] = _enum_by_value(
            DistributionKind, read(_SECTION_DS, "type", defaults.distribution.value), "DN type"
        )
        # unspecified bandwidths default relative to the configured fabric
        # size (a partial file overriding only ms_size stays consistent)
        default_bw = min(defaults.dn_bandwidth, kwargs["num_ms"])
        kwargs["dn_bandwidth"] = int(
            read(_SECTION_DS, "bandwidth", default_bw)
        )
        kwargs["dn_fifo_depth"] = int(
            read(_SECTION_DS, "fifo_depth", defaults.dn_fifo_depth)
        )
        kwargs["reduction"] = _enum_by_value(
            ReductionKind, read(_SECTION_RN, "type", defaults.reduction.value), "RN type"
        )
        kwargs["rn_bandwidth"] = int(
            read(_SECTION_RN, "bandwidth", min(defaults.rn_bandwidth, kwargs["num_ms"]))
        )
        kwargs["rn_fifo_depth"] = int(
            read(_SECTION_RN, "fifo_depth", defaults.rn_fifo_depth)
        )
        kwargs["accumulation_buffer"] = bool(
            int(read(_SECTION_RN, "accumulation_buffer", int(defaults.accumulation_buffer)))
        )
        kwargs["controller"] = _enum_by_value(
            ControllerKind, read(_SECTION_MEM, "controller", defaults.controller.value), "controller"
        )
        kwargs["gb_size_kb"] = int(read(_SECTION_MEM, "gb_size_kb", defaults.gb_size_kb))
        kwargs["gb_banks"] = int(read(_SECTION_MEM, "gb_banks", defaults.gb_banks))
        kwargs["sparse_format"] = _enum_by_value(
            SparseFormat,
            read(_SECTION_MEM, "sparse_format", defaults.sparse_format.value),
            "sparse format",
        )
        kwargs["dram"] = DramConfig(
            bandwidth_gbps=float(
                read(_SECTION_DRAM, "bandwidth_gbps", defaults.dram.bandwidth_gbps)
            ),
            size_mb=int(read(_SECTION_DRAM, "size_mb", defaults.dram.size_mb)),
            access_latency_cycles=int(
                read(_SECTION_DRAM, "access_latency_cycles", defaults.dram.access_latency_cycles)
            ),
            row_buffer_bytes=int(
                read(_SECTION_DRAM, "row_buffer_bytes", defaults.dram.row_buffer_bytes)
            ),
            row_hit_latency_cycles=int(
                read(
                    _SECTION_DRAM,
                    "row_hit_latency_cycles",
                    defaults.dram.row_hit_latency_cycles,
                )
            ),
        )
    except ValueError as exc:
        raise ConfigurationError(f"bad value in configuration file: {exc}") from exc

    return HardwareConfig(**kwargs)


def load_config(path: Union[str, Path]) -> HardwareConfig:
    """Read a hardware configuration from a ``.cfg`` file on disk."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"configuration file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))
