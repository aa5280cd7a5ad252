"""Every headline number of the evaluation report, beside the paper's.

:func:`claims` runs the drivers :mod:`repro.experiments.report` runs,
with the same arguments, and returns one :class:`Claim` per number that
the paper states as a figure: our value, the paper's value and where the
paper gives it. Where the paper says it in words ("perfect match", "up
to ~5x"), the value those words name stands in. A Table V row compares
cycles with the RTL column, the ground truth the paper validates against.

The evaluation is deterministic, so ``tests/regression/paper_claims.json``
pins every value exactly, and a ratchet there lets a value move away from
the paper only with a written reason. :func:`render_table` renders that
pin file as the paper-vs-measured block of ``EXPERIMENTS.md``.

Usage::

    python -m repro.experiments.claims     # one line per claim
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, NamedTuple

import numpy as np

from repro.experiments import fig1, fig5, fig6, fig9, tablev


class Claim(NamedTuple):
    """One headline number: ours, the paper's, and where the paper says it."""

    name: str
    value: float
    paper: float
    source: str


def _mean(rows: List[Dict], column: str, **where) -> float:
    return float(np.mean([
        row[column] for row in rows
        if all(row[key] == value for key, value in where.items())
    ]))


def _max(rows: List[Dict], column: str, **where) -> float:
    return float(max(
        row[column] for row in rows
        if all(row[key] == value for key, value in where.items())
    ))


def _fig1() -> List[Claim]:
    diffs = [abs(row["diff_pct"]) for row in fig1.run_fig1a()]
    bandwidth = fig1.run_fig1b()
    sparsity = fig1.run_fig1c()
    return [
        Claim("fig1a.mean_abs_diff_pct", float(np.mean(diffs)), 0.0,
              'Fig. 1a: "almost the same number of cycles"'),
        Claim("fig1b.bw128.mean_st_over_am",
              _mean(bandwidth, "st_over_am", bandwidth=128), 1.0103,
              "Fig. 1b: 1.0103 on average at full bandwidth"),
        Claim("fig1b.bw32.max_st_over_am",
              _max(bandwidth, "st_over_am", bandwidth=32), 5.0,
              'Fig. 1b: "up to ~5x" at bandwidth 32 (M-FC)'),
        Claim("fig1c.sparsity0.mean_st_over_am",
              _mean(sparsity, "st_over_am", sparsity=0.0), 1.0,
              'Fig. 1c: "perfect match" on dense operands'),
        Claim("fig1c.sparsity90.max_st_over_am",
              _max(sparsity, "st_over_am", sparsity=0.9), 1.92,
              "Fig. 1c: up to 1.92x at 90 % sparsity"),
    ]


def _tablev() -> List[Claim]:
    rows = tablev.run_tablev()
    found = [
        Claim(f"tablev.{row['layer']}.cycles", row["repro_cycles"],
              row["rtl_cycles"], "Table V: RTL cycles")
        for row in rows
    ]
    found.append(Claim(
        "tablev.mean_error_vs_rtl_pct", _mean(rows, "error_vs_rtl_pct"),
        1.53, "Table V: STONNE's average error, 1.53 %",
    ))
    return found


def _fig5() -> List[Claim]:
    rows = fig5.run_fig5()
    speedups = fig5.summarize_speedups(rows)
    energy = {
        (row["model"], row["arch"]): row["energy_total_uj"] for row in rows
    }
    models = sorted({model for model, _ in energy})

    def energy_ratio(arch: str, reference: str) -> float:
        return float(np.mean([
            energy[model, arch] / energy[model, reference] for model in models
        ]))

    area = {row["arch"]: row for row in fig5.run_fig5c()}
    return [
        Claim("fig5a.avg_maeri_speedup_over_tpu",
              speedups["avg_maeri_speedup_over_tpu"], 1.20,
              "Fig. 5a: MAERI-like 20 % faster than TPU-like on average"),
        Claim("fig5a.max_maeri_speedup_over_tpu",
              speedups["max_maeri_speedup_over_tpu"], 3.31,
              "Fig. 5a: MAERI-like up to 231 % faster (MobileNets)"),
        Claim("fig5a.min_maeri_speedup_over_tpu",
              speedups["min_maeri_speedup_over_tpu"], 1.09,
              "Fig. 5a: MAERI-like at least 9 % faster (ResNets-50)"),
        Claim("fig5a.avg_sigma_speedup_over_maeri",
              speedups["avg_sigma_speedup_over_maeri"], 1.91,
              "Fig. 5a: SIGMA-like 91 % faster than MAERI-like on average"),
        *(
            Claim(f"fig5b.{arch}.rn_energy_share",
                  _mean(rows, "energy_rn_share", arch=arch), share,
                  f"Fig. 5b: RN share of {arch.upper()}-like energy")
            for arch, share in (("tpu", 0.84), ("maeri", 0.58),
                                ("sigma", 0.43))
        ),
        Claim("fig5b.sigma_over_tpu_energy", energy_ratio("sigma", "tpu"),
              0.46, "Fig. 5b: SIGMA-like 54 % more energy-efficient than "
              "TPU-like"),
        Claim("fig5b.sigma_over_maeri_energy",
              energy_ratio("sigma", "maeri"), 0.30,
              "Fig. 5b: SIGMA-like 70 % more energy-efficient than "
              "MAERI-like"),
        *(
            Claim(f"fig5c.{arch}.gb_area_share", area[arch]["area_gb_share"],
                  share, f"Fig. 5c: GB SRAM share of {arch.upper()}-like area")
            for arch, share in (("maeri", 0.70), ("sigma", 0.77),
                                ("tpu", 0.82))
        ),
        Claim("fig5c.tpu_over_maeri_area",
              area["tpu"]["total_um2"] / area["maeri"]["total_um2"], 0.83,
              "Fig. 5c: TPU-like 17 % smaller than MAERI-like"),
        Claim("fig5c.sigma_over_maeri_area",
              area["sigma"]["total_um2"] / area["maeri"]["total_um2"], 0.87,
              "Fig. 5c: SIGMA-like 13 % smaller than MAERI-like"),
    ]


def _snapea() -> List[Claim]:
    rows = fig6.run_fig6(num_images=2)
    return [
        Claim("fig6.avg_speedup", _mean(rows, "speedup"), 1.35,
              "Fig. 6a: SNAPEA ~35 % faster"),
        Claim("fig6.avg_energy_saving", 1.0 - _mean(rows, "normalized_energy"),
              0.21, "Fig. 6b: SNAPEA saves ~21 % energy"),
        Claim("fig6.avg_ops_reduction", _mean(rows, "ops_reduction"), 0.30,
              "Fig. 6c: SNAPEA computes ~30 % fewer operations"),
        Claim("fig6.avg_mem_reduction", _mean(rows, "mem_reduction"), 0.16,
              "Fig. 6d: SNAPEA makes ~16 % fewer memory accesses"),
    ]


def _lff() -> List[Claim]:
    rows = fig9.run_fig9()
    gain = 1.0 - _mean(rows, "normalized_runtime", policy="LFF")
    return [Claim("fig9.avg_lff_gain", gain, 0.07,
                  "Fig. 9a: LFF ~7 % faster on average")]


def claims() -> List[Claim]:
    """Every headline number of the evaluation report, in report order:
    Fig. 1a-c, Table V, Fig. 5a-c, the SNAPEA metrics, the LFF gain."""
    return [*_fig1(), *_tablev(), *_fig5(), *_snapea(), *_lff()]


#: the marker comments around the rendered block in ``EXPERIMENTS.md``
BLOCK_BEGIN = (
    "<!-- paper-claims:begin — rendered from "
    "tests/regression/paper_claims.json; do not edit by hand -->"
)
BLOCK_END = "<!-- paper-claims:end -->"


def _cell(value: float, spec: str) -> str:
    return str(value) if isinstance(value, int) else format(value, spec)


def render_table(pinned: Mapping[str, Mapping]) -> str:
    """The paper-vs-measured block of ``EXPERIMENTS.md``, markers
    included: one row per entry of the ``paper_claims.json`` mapping, in
    its order."""
    lines = [
        BLOCK_BEGIN,
        "",
        "| claim | where the paper says it | paper | measured |",
        "|---|---|---|---|",
    ]
    for name, entry in pinned.items():
        lines.append(
            f"| `{name}` | {entry['source']} | {_cell(entry['paper'], 'g')} "
            f"| {_cell(entry['value'], '.4g')} |"
        )
    return "\n".join(lines + ["", BLOCK_END])


def main() -> int:
    for claim in claims():
        print(f"{claim.name:40s} {claim.value:>12.6g}  paper "
              f"{claim.paper:<8g} {claim.source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
