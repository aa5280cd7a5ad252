"""Hardware and mapping configuration for the simulator.

This package defines:

- :mod:`repro.config.layer` — shapes of the workloads (convolution layers
  and GEMMs) using the paper's ``Layer(R, S, C, G, K, N, X', Y')`` notation.
- :mod:`repro.config.hardware` — the hardware configuration file: which
  building block is used for each network fabric (Fig. 3b of the paper),
  sizes, bandwidths and the memory hierarchy parameters.
- :mod:`repro.config.tile` — the paper's
  ``Tile(T_R, T_S, T_C, T_G, T_K, T_N, T_X', T_Y')`` mapping descriptor and
  an automatic tiler.
- :mod:`repro.config.presets` — the three reference accelerators of
  Table IV (TPU-like, MAERI-like, SIGMA-like).
"""

from repro.config.hardware import (
    ControllerKind,
    Dataflow,
    DataType,
    DistributionKind,
    DramConfig,
    EngineMode,
    HardwareConfig,
    MultiplierKind,
    ReductionKind,
    SparseFormat,
    load_config,
    parse_config,
    save_config,
)
from repro.config.layer import ConvLayerSpec, GemmSpec, LayerKind
from repro.config.presets import (
    eyeriss_like,
    maeri_like,
    preset,
    sigma_like,
    snapea_like,
    tpu_like,
)
from repro.config.tile import (
    TileConfig,
    generate_conv_tile,
    generate_gemm_tile,
    load_tile_file,
    save_tile_file,
)

__all__ = [
    "ControllerKind",
    "ConvLayerSpec",
    "Dataflow",
    "DataType",
    "DistributionKind",
    "DramConfig",
    "EngineMode",
    "GemmSpec",
    "HardwareConfig",
    "LayerKind",
    "MultiplierKind",
    "ReductionKind",
    "SparseFormat",
    "TileConfig",
    "eyeriss_like",
    "generate_conv_tile",
    "generate_gemm_tile",
    "load_tile_file",
    "load_config",
    "maeri_like",
    "parse_config",
    "preset",
    "save_config",
    "save_tile_file",
    "sigma_like",
    "snapea_like",
    "tpu_like",
]
