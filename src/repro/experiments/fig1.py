"""Fig. 1: cycle-level simulation vs analytical models (paper Section II).

Three sub-experiments over the eight representative layers of
:data:`repro.frontend.models.REPRESENTATIVE_LAYERS`:

- **Fig. 1a** — an output-stationary systolic array (16x16 / 32x32 /
  64x64): STONNE's cycle-level systolic engine vs the SCALE-Sim-style
  analytical model. Expected: near-identical (rigid fabrics really are
  formulas).
- **Fig. 1b** — a 128-multiplier MAERI-like fabric at 128 / 64 / 32
  elements/cycle of GB bandwidth: cycle-level vs the MAERI analytical
  model. Expected: a match at full bandwidth, and a growing analytical
  underestimate as bandwidth shrinks (up to ~400 % in the paper).
- **Fig. 1c** — a 128-multiplier SIGMA-like sparse fabric, sparsity swept
  0-90 %: cycle-level vs the SIGMA analytical model. Expected: a match at
  0 % and growing divergence with sparsity (up to ~92 % in the paper).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analytical import (
    maeri_analytical_cycles,
    scalesim_conv_cycles,
    scalesim_gemm_cycles,
    sigma_analytical_cycles,
)
from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import ConvLayerSpec, GemmSpec, maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models.zoo import REPRESENTATIVE_LAYERS

SYSTOLIC_DIMS = (16, 32, 64)
MAERI_BANDWIDTHS = (128, 64, 32)
SPARSITY_LEVELS = (0.0, 0.3, 0.6, 0.8, 0.9)


def _layer_items():
    return list(REPRESENTATIVE_LAYERS.items())


def run_fig1a() -> List[Dict]:
    """STONNE vs analytical model on OS systolic arrays of three sizes."""
    rows = []
    for label, spec in _layer_items():
        for dim in SYSTOLIC_DIMS:
            acc = Accelerator(tpu_like(num_pes=dim * dim))
            if isinstance(spec, ConvLayerSpec):
                # a grouped conv is `g` identical GEMMs run back to back
                am = scalesim_conv_cycles(spec, dim)
                st = _systolic_cycles(acc, spec.to_gemm()) * spec.g
            else:
                am = scalesim_gemm_cycles(spec, dim)
                st = _systolic_cycles(acc, spec)
            rows.append(
                {
                    "layer": label,
                    "pe_array": f"{dim}x{dim}",
                    "stonne_cycles": st,
                    "analytical_cycles": am,
                    "diff_pct": 100.0 * (st - am) / am,
                }
            )
    return rows


def _systolic_cycles(acc: Accelerator, gemm: GemmSpec) -> int:
    """One GEMM's cycles on the array, timed from its shape alone."""
    return acc.systolic.time_gemm(gemm.m, gemm.k, gemm.n).cycles


def run_fig1b() -> List[Dict]:
    """STONNE vs the MAERI analytical model under bandwidth pressure."""
    num_ms = 128
    rows = []
    for label, spec in _layer_items():
        for bw in MAERI_BANDWIDTHS:
            acc = Accelerator(maeri_like(num_ms=num_ms, bandwidth=bw))
            if isinstance(spec, ConvLayerSpec):
                tile = acc.mapper.tile_for_conv(spec)
                result = acc.dense_controller.run_conv(spec, tile)
                st = result.cycles
                am = maeri_analytical_cycles(spec, tile, num_ms, bw)
            else:
                gemm_layer = ConvLayerSpec(
                    r=1, s=1, c=spec.k, k=spec.m, x=1, y=spec.n, name=spec.name
                )
                tile = acc.mapper.tile_for_conv(gemm_layer)
                result = acc.dense_controller.run_conv(gemm_layer, tile)
                st = result.cycles
                am = maeri_analytical_cycles(gemm_layer, tile, num_ms, bw)
            rows.append(
                {
                    "layer": label,
                    "bandwidth": bw,
                    "stonne_cycles": st,
                    "analytical_cycles": am,
                    "st_over_am": st / am,
                }
            )
    return rows


def run_fig1c() -> List[Dict]:
    """STONNE vs the SIGMA analytical model across sparsity ratios."""
    import numpy as np

    from repro.analytical.sigma_model import block_diagonal_sparse_matrix

    num_ms = 128
    bw = 128
    rows = []
    for label, spec in _layer_items():
        for sparsity in SPARSITY_LEVELS:
            if isinstance(spec, ConvLayerSpec):
                # grouped convolutions lower to the block-diagonal GEMM the
                # sparse controller actually maps
                stationary = block_diagonal_sparse_matrix(
                    spec.g, spec.k, spec.filter_size, sparsity, seed=11
                )
                n_cols = spec.n * spec.x_out * spec.y_out
            else:
                stationary = uniform_sparse_matrix(spec.m, spec.k, sparsity, seed=11)
                n_cols = spec.n
            acc = Accelerator(sigma_like(num_ms=num_ms, bandwidth=bw))
            st = acc.sparse_controller.time_spmm(stationary, n_cols).cycles
            nnz = int(np.count_nonzero(stationary))
            am = sigma_analytical_cycles(nnz, n_cols, num_ms, bw)
            rows.append(
                {
                    "layer": label,
                    "sparsity": sparsity,
                    "stonne_cycles": st,
                    "analytical_cycles": am,
                    "st_over_am": st / am,
                }
            )
    return rows
