"""Design-space exploration sweeps — the simulator's raison d'être.

The paper motivates cycle-level simulation with "fast and accurate
design-space exploration of DNN accelerators". This module provides the
reusable sweep API behind that workflow: run one workload across a grid
of hardware points (architecture template x fabric size x bandwidth) and
collect cycles, energy, area and the analytical-model error at every
point, ready for Pareto analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analytical import maeri_analytical_cycles, scalesim_conv_cycles
from repro.config import ConvLayerSpec, GemmSpec, HardwareConfig
from repro.config.presets import preset
from repro.engine.accelerator import Accelerator


@dataclass(frozen=True)
class DsePoint:
    """One evaluated hardware point."""

    arch: str
    num_ms: int
    bandwidth: int
    cycles: int
    energy_uj: float
    area_um2: float
    utilization: float
    analytical_cycles: Optional[int] = None

    @property
    def edp(self) -> float:
        """Energy-delay product (uJ x cycles), the usual Pareto metric."""
        return self.energy_uj * self.cycles

    @property
    def analytical_error_pct(self) -> Optional[float]:
        if self.analytical_cycles is None:
            return None
        return 100.0 * (self.cycles - self.analytical_cycles) / self.cycles


def _run_workload(
    acc: Accelerator, workload: Union[ConvLayerSpec, GemmSpec], seed: int
) -> None:
    rng = np.random.default_rng(seed)
    if isinstance(workload, ConvLayerSpec):
        weights = rng.standard_normal(
            (workload.k * workload.g, workload.c, workload.r, workload.s)
        ).astype(np.float32)
        inputs = rng.standard_normal(
            (workload.n, workload.c * workload.g, workload.x, workload.y)
        ).astype(np.float32)
        acc.run_conv(weights, inputs, stride=workload.stride, groups=workload.g,
                     name=workload.name or "dse-conv")
    else:
        a = rng.standard_normal((workload.m, workload.k)).astype(np.float32)
        b = rng.standard_normal((workload.k, workload.n)).astype(np.float32)
        if acc.sparse_controller is not None:
            acc.run_spmm(a, b, name=workload.name or "dse-gemm")
        else:
            acc.run_gemm(a, b, name=workload.name or "dse-gemm")


def _analytical_reference(
    arch: str, workload, config: HardwareConfig
) -> Optional[int]:
    if not isinstance(workload, ConvLayerSpec):
        return None
    if arch == "tpu":
        return scalesim_conv_cycles(workload, config.systolic_dim)
    if arch == "maeri":
        mapper = Accelerator(config).mapper
        tile = mapper.tile_for_conv(workload)
        return maeri_analytical_cycles(
            workload, tile, config.num_ms, config.dn_bandwidth
        )
    return None


def sweep(
    workload: Union[ConvLayerSpec, GemmSpec],
    architectures: Sequence[str] = ("tpu", "maeri", "sigma"),
    sizes: Sequence[int] = (64, 256),
    bandwidth_fractions: Sequence[float] = (1.0, 0.5),
    seed: int = 0,
) -> List[DsePoint]:
    """Evaluate ``workload`` over the hardware grid; returns all points."""
    points: List[DsePoint] = []
    for arch in architectures:
        for num_ms in sizes:
            for fraction in bandwidth_fractions:
                bandwidth = max(1, int(num_ms * fraction))
                if arch == "tpu" and fraction != 1.0:
                    continue  # the paper always runs the TPU at full bw
                config = preset(arch, num_ms, bandwidth)
                acc = Accelerator(config)
                _run_workload(acc, workload, seed)
                energy = acc.report.total_energy()
                area = acc.report.area()
                layer = acc.report.layers[-1]
                points.append(
                    DsePoint(
                        arch=arch,
                        num_ms=num_ms,
                        bandwidth=config.dn_bandwidth,
                        cycles=acc.report.total_cycles,
                        energy_uj=energy.total_uj,
                        area_um2=area.total_um2,
                        utilization=layer.multiplier_utilization,
                        analytical_cycles=_analytical_reference(
                            arch, workload, config
                        ),
                    )
                )
    return points


def pareto_front(
    points: Sequence[DsePoint], x: str = "cycles", y: str = "energy_uj"
) -> List[DsePoint]:
    """Non-dominated points, minimizing both ``x`` and ``y``."""
    front: List[DsePoint] = []
    for candidate in sorted(points, key=lambda p: (getattr(p, x), getattr(p, y))):
        if not front or getattr(candidate, y) < getattr(front[-1], y):
            front.append(candidate)
    return front


def as_rows(points: Sequence[DsePoint]) -> List[Dict]:
    """Row dicts for :func:`repro.experiments.runner.format_table`."""
    rows = []
    for p in points:
        row = {
            "arch": p.arch,
            "num_ms": p.num_ms,
            "bandwidth": p.bandwidth,
            "cycles": p.cycles,
            "energy_uj": round(p.energy_uj, 4),
            "area_mm2": round(p.area_um2 / 1e6, 4),
            "edp": round(p.edp, 2),
            "utilization": round(p.utilization, 3),
        }
        if p.analytical_cycles is not None:
            row["am_error_pct"] = round(p.analytical_error_pct, 1)
        rows.append(row)
    return rows
