"""STONNE reproduction: cycle-level simulation of DNN inference accelerators.

A pure-Python reproduction of *STONNE: Enabling Cycle-Level
Microarchitectural Simulation for DNN Inference Accelerators* (IISWC
2021). The package provides:

- the simulation engine (:mod:`repro.engine`) built from the paper's
  configurable network fabrics (:mod:`repro.noc`) and memory hierarchy
  (:mod:`repro.memory`);
- hardware/tile configuration with the Table IV presets
  (:mod:`repro.config`);
- the STONNE API instruction set (:mod:`repro.api`);
- a mini DL framework front-end with simulated layers and the seven
  evaluation models (:mod:`repro.frontend`);
- the analytical models STONNE is compared against (:mod:`repro.analytical`);
- the data-dependent-optimization use cases (:mod:`repro.opts`);
- the experiment harnesses regenerating every figure/table
  (:mod:`repro.experiments`).

Quickstart::

    from repro import Accelerator, maeri_like
    import numpy as np

    acc = Accelerator(maeri_like(num_ms=64, bandwidth=16))
    rng = np.random.default_rng(42)
    out = acc.run_gemm(rng.random((8, 32)), rng.random((32, 8)))
    print(acc.report.total_cycles)
"""

from repro.api import CreateInstance, StonneInstance
from repro.config import (
    ConvLayerSpec,
    GemmSpec,
    HardwareConfig,
    TileConfig,
    load_config,
    maeri_like,
    save_config,
    sigma_like,
    snapea_like,
    tpu_like,
)
from repro.engine import Accelerator, SimulationReport, area_report, energy_report
from repro.errors import (
    ApiError,
    ConfigurationError,
    MappingError,
    SimulationError,
    StonneError,
)
from repro.observability import MetricsRecorder, Observability, Tracer
from repro.version import __version__

__all__ = [
    "Accelerator",
    "ApiError",
    "ConfigurationError",
    "ConvLayerSpec",
    "CreateInstance",
    "GemmSpec",
    "HardwareConfig",
    "MappingError",
    "MetricsRecorder",
    "Observability",
    "SimulationError",
    "SimulationReport",
    "StonneError",
    "StonneInstance",
    "TileConfig",
    "Tracer",
    "__version__",
    "area_report",
    "energy_report",
    "load_config",
    "maeri_like",
    "save_config",
    "sigma_like",
    "snapea_like",
    "tpu_like",
]
