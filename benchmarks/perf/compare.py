#!/usr/bin/env python3
"""Compare two records written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

One row per workload x end-to-end metric: both medians with quartiles,
the ratio B/A (A is the base), the metric's bound and a verdict:

- ``ok``          B is not worse than A by more than the bound;
- ``worse``       it is;
- ``unresolved``  the run-to-run spread of either side is wider than the
                  bound and the two sides' runs overlap, so neither
                  answer can be given (see choosing-metrics, section 6).

Exact per-layer counts present in both records (``--trace`` runs) must be
identical; a difference is reported as ``worse``. Exits 1 on any
``worse``. This is the tool the "two sets of runs agree" criterion is
checked with.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import END_TO_END, FAIL_RATIO, PER_LAYER  # noqa: E402


def _spread(cell):
    return (cell["q3"] - cell["q1"]) / cell["value"] if cell["value"] else 0.0


def verdict(a, b, better, bound):
    """``ok`` / ``worse`` / ``unresolved`` for one metric's two sides."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["value"])
    worse_by = sign * (b["value"] - a["value"]) / base if base else (
        sign * (b["value"] - a["value"]))
    a_runs = a.get("samples", [a["value"]])
    b_runs = b.get("samples", [b["value"]])
    if max(_spread(a), _spread(b)) > bound:
        # every run of B better than every run of A settles it
        if max(sign * v for v in b_runs) < min(sign * v for v in a_runs):
            return "ok"
        overlap = (min(a_runs) <= max(b_runs) and min(b_runs) <= max(a_runs))
        if overlap:
            return "unresolved"
    return "worse" if worse_by > bound else "ok"


def _fmt(cell):
    return f"{cell['value']:.5g} [{cell['q1']:.5g}, {cell['q3']:.5g}]"


def compare(a_record, b_record):
    """Rows of (workload, metric, A, B, ratio, bound, verdict)."""
    rows = []
    for name, a_workload in a_record["workloads"].items():
        b_workload = b_record["workloads"].get(name)
        if b_workload is None:
            continue
        a_metrics, b_metrics = a_workload["metrics"], b_workload["metrics"]
        for metric in (*END_TO_END, FAIL_RATIO):
            if metric.name not in a_metrics or metric.name not in b_metrics:
                continue
            a, b = a_metrics[metric.name], b_metrics[metric.name]
            ratio = (f"{b['value'] / a['value']:.4f}" if a["value"]
                     else f"{b['value']:.4g}/0")
            rows.append((
                name, metric.name, _fmt(a), _fmt(b), ratio,
                f"{metric.bound:g}", verdict(a, b, metric.better, metric.bound),
            ))
        for metric in PER_LAYER:
            if not metric.exact or metric.name not in a_metrics \
                    or metric.name not in b_metrics:
                continue
            a, b = a_metrics[metric.name]["value"], b_metrics[metric.name]["value"]
            rows.append((
                name, metric.name, f"{a:.12g}", f"{b:.12g}",
                "1" if a == b else "differs", "exact",
                "ok" if a == b else "worse",
            ))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare(*records)
    header = ("workload", "metric", f"A median [q1, q3] ({argv[0]})",
              f"B median [q1, q3] ({argv[1]})", "B/A", "bound", "verdict")
    widths = [max(len(str(row[i])) for row in (header, *rows))
              for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    counts = {v: sum(row[-1] == v for row in rows)
              for v in ("ok", "unresolved", "worse")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['worse']} worse")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
