"""Fig. 5: full-model comparison of TPU-, MAERI- and SIGMA-like designs.

Use case 1 of the paper: complete inference of the seven Table I models on
the three Table IV accelerators (256 PEs each; 128 elements/cycle for the
flexible designs, full bandwidth for the TPU). Three views:

- **Fig. 5a** — total cycles per (model, architecture).
- **Fig. 5b** — energy in uJ broken into GB / DN / MN / RN.
- **Fig. 5c** — area in um^2 per architecture (model-independent).

Expected shape: MAERI-like beats TPU-like on every model (most on
MobileNets, least on the regular-conv-heavy models); SIGMA-like beats
MAERI-like thanks to sparsity; the RN dominates energy; the GB SRAM
dominates area with the TPU-like design smallest.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.config import HardwareConfig, preset
from repro.engine.accelerator import Accelerator
from repro.engine.area import area_report
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate

ARCHITECTURES = ("tpu", "maeri", "sigma")


def architecture_config(arch: str) -> HardwareConfig:
    """The Fig. 5 design point of ``arch``: its preset at 256 PEs."""
    return preset(arch)


def run_model_on(
    arch: str, model_name: str, batch: int = 1, seed: int = 0
) -> Accelerator:
    """Full-model inference of one Table I model on one architecture."""
    model = build_model(model_name, seed=seed)
    x = model_input(model_name, batch=batch, seed=seed + 1)
    acc = Accelerator(architecture_config(arch))
    simulate(model, acc)
    model(x)
    detach_context(model)
    return acc


def run_fig5(
    models: Sequence[str] = MODEL_NAMES, batch: int = 1, seed: int = 0
) -> List[Dict]:
    """Cycles + energy breakdown for every (model, architecture) pair."""
    rows = []
    for model_name in models:
        for arch in ARCHITECTURES:
            acc = run_model_on(arch, model_name, batch=batch, seed=seed)
            energy = acc.report.total_energy()
            row = {
                "model": model_name,
                "arch": arch,
                "cycles": acc.report.total_cycles,
                "energy_total_uj": energy.total_uj,
            }
            for group in ("GB", "DN", "MN", "RN"):
                row[f"energy_{group.lower()}_uj"] = energy.by_group_uj.get(group, 0.0)
                row[f"energy_{group.lower()}_share"] = energy.share_of(group)
            rows.append(row)
    return rows


def run_fig5c() -> List[Dict]:
    """Area estimations for the three architectures (Fig. 5c)."""
    rows = []
    for arch in ARCHITECTURES:
        breakdown = area_report(architecture_config(arch))
        row = {"arch": arch, "total_um2": breakdown.total_um2}
        for group, value in sorted(breakdown.by_group_um2.items()):
            row[f"area_{group.lower()}_um2"] = value
            row[f"area_{group.lower()}_share"] = breakdown.share_of(group)
        rows.append(row)
    return rows


def summarize_speedups(rows: List[Dict]) -> Dict[str, float]:
    """Average cycle ratios matching the paper's headline claims."""
    by_model: Dict[str, Dict[str, int]] = {}
    for row in rows:
        by_model.setdefault(row["model"], {})[row["arch"]] = row["cycles"]
    maeri_vs_tpu = [m["tpu"] / m["maeri"] for m in by_model.values()]
    sigma_vs_maeri = [m["maeri"] / m["sigma"] for m in by_model.values()]
    return {
        "avg_maeri_speedup_over_tpu": float(np.mean(maeri_vs_tpu)),
        "max_maeri_speedup_over_tpu": float(np.max(maeri_vs_tpu)),
        "min_maeri_speedup_over_tpu": float(np.min(maeri_vs_tpu)),
        "avg_sigma_speedup_over_maeri": float(np.mean(sigma_vs_maeri)),
    }
