"""The STONNE Simulation Engine (paper Sections III-IV).

- :mod:`repro.engine.accelerator` — the top-level ``Accelerator`` class
  that composes the configured building blocks and times one workload per
  layer in closed form (``Accelerator.time``), plus
  the functional ``run_*`` front end it shares with the parallel
  runner's recorder.
- :mod:`repro.engine.workload` — ``LayerWorkload``, the plain-data
  description of one offloaded operation the two halves exchange.
- :mod:`repro.engine.systolic` — the output- or weight-stationary
  systolic array used by TPU-like (PoPN) configurations, timed from its
  tile classes.
- :mod:`repro.engine.mapper` — layer/tile → configuration signals.
- :mod:`repro.engine.stats` — the Output Module: JSON summary + counter
  file reporting.
- :mod:`repro.engine.energy` / :mod:`repro.engine.area` — the table-based
  energy and area models (Accelergy-style).
"""

from repro.engine.accelerator import Accelerator, LayerReport
from repro.engine.area import AreaBreakdown, area_report
from repro.engine.energy import EnergyBreakdown, EnergyTable, energy_report
from repro.engine.mapper import Mapper
from repro.engine.stats import SimulationReport
from repro.engine.systolic import SystolicEngine, SystolicRunResult

__all__ = [
    "Accelerator",
    "AreaBreakdown",
    "EnergyBreakdown",
    "EnergyTable",
    "LayerReport",
    "Mapper",
    "SimulationReport",
    "SystolicEngine",
    "SystolicRunResult",
    "area_report",
    "energy_report",
]
