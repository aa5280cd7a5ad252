"""Table V: timing validation against the published RTL cycle counts.

The paper validates STONNE against three RTL implementations — the MAERI
Bluespec code (32 MSs, bandwidth 4, three convolution layers with the
fixed tile ``Tile(3,3,1,1,1,1,3,1)``), the SIGMA Verilog code (128 MSs,
full bandwidth, four GEMMs) and the SCALE-Sim TPU RTL (16x16
output-stationary array, four GEMMs). The RTL cycle counts below are the
ground-truth column of Table V; this harness runs the same eleven
microbenchmarks on our engines and reports the error against them (and,
for reference, against the STONNE column of the table).

Each row is one timing call on the engine it validates. The SIGMA rows
are dense GEMMs: the sparse controller's timing reads only the stationary
operand's nonzero structure, so an all-ones ``M x K`` matrix stands for
the layer and nothing is multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.config import ConvLayerSpec, TileConfig, maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator


@dataclass(frozen=True)
class ValidationCase:
    design: str
    name: str
    m: int
    n: int
    k: int
    rtl_cycles: int
    stonne_paper_cycles: int


#: the eleven rows of Table V
VALIDATION_CASES = (
    ValidationCase("MAERI", "MAERI-1", 6, 25, 54, 1338, 1381),
    ValidationCase("MAERI", "MAERI-2", 20, 25, 180, 16120, 16081),
    ValidationCase("MAERI", "MAERI-3", 6, 400, 54, 26178, 26581),
    ValidationCase("SIGMA", "SIGMA-1", 64, 128, 32, 2321, 2304),
    ValidationCase("SIGMA", "SIGMA-2", 256, 64, 64, 8594, 8448),
    ValidationCase("SIGMA", "SIGMA-3", 256, 128, 64, 17192, 16896),
    ValidationCase("SIGMA", "SIGMA-4", 128, 1, 64, 139, 138),
    ValidationCase("TPU", "TPU-1", 16, 16, 32, 66, 67),
    ValidationCase("TPU", "TPU-2", 16, 16, 16, 50, 51),
    ValidationCase("TPU", "TPU-3", 32, 32, 16, 200, 204),
    ValidationCase("TPU", "TPU-4", 64, 64, 32, 1056, 1072),
)

#: the fixed tile the MAERI BSV code supports:
#: Tile(T_R=3, T_S=3, T_C=1, T_G=1, T_K=1, T_N=1, T_X'=3, T_Y'=1)
MAERI_TILE = TileConfig(t_r=3, t_s=3, t_c=1, t_g=1, t_k=1, t_n=1, t_x=3, t_y=1)


def _maeri_layer(case: ValidationCase) -> ConvLayerSpec:
    """Reconstruct the convolution behind a MAERI (M, N, K) row.

    The BSV layers use 3x3 filters: ``K = 3*3*C`` gives the channel count,
    ``M`` is the filter count and ``N = X'*Y'`` the (square) output map.
    """
    c = case.k // 9
    side = int(round(case.n ** 0.5))
    if side * side != case.n:
        raise ValueError(f"{case.name}: N={case.n} is not a square output map")
    return ConvLayerSpec(
        r=3, s=3, c=c, k=case.m, x=side + 2, y=side + 2, name=case.name
    )


def run_tablev() -> List[Dict]:
    """Run the eleven validation microbenchmarks; returns comparison rows."""
    rows = []
    for case in VALIDATION_CASES:
        if case.design == "MAERI":
            acc = Accelerator(maeri_like(num_ms=32, bandwidth=4))
            layer = _maeri_layer(case)
            cycles = acc.dense_controller.run_conv(layer, MAERI_TILE).cycles
        elif case.design == "SIGMA":
            acc = Accelerator(sigma_like(num_ms=128, bandwidth=128))
            stationary = np.ones((case.m, case.k), np.float32)
            cycles = acc.sparse_controller.time_spmm(stationary, case.n).cycles
        else:  # TPU: 16x16 OS array
            acc = Accelerator(tpu_like(num_pes=256))
            cycles = acc.systolic.time_gemm(case.m, case.k, case.n).cycles
        rows.append(
            {
                "design": case.design,
                "layer": case.name,
                "M": case.m,
                "N": case.n,
                "K": case.k,
                "rtl_cycles": case.rtl_cycles,
                "paper_stonne_cycles": case.stonne_paper_cycles,
                "repro_cycles": cycles,
                "error_vs_rtl_pct": 100.0 * abs(cycles - case.rtl_cycles) / case.rtl_cycles,
            }
        )
    return rows
