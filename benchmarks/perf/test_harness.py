"""Self-test of the benchmark harness.

Run with ``pytest benchmarks/perf -q``. Outside the tier-1 ``testpaths``
and not named ``bench_*.py``, so neither tier-1 nor ``make bench``
collects it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from metrics import END_TO_END, PER_LAYER, PRINTED_ONLY  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def _run(tmp_path, *args):
    """run.py in ``tmp_path``; returns (exit code, --out record, seconds)."""
    out = tmp_path / "out.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(out), *args],
        cwd=tmp_path, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    return done, json.loads(out.read_text()), elapsed


def test_benchmark_json_declares_what_the_harness_emits():
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import workloads
    assert [(w.name, w.why) for w in workloads.WORKLOADS.values()] == [
        (w["name"], w["why"]) for w in declared["workloads"]]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [tuple(m)[:3] for m in PER_LAYER]


def test_smoke_runs_all_workloads_and_emits_every_end_to_end_metric(tmp_path):
    done, record, elapsed = _run(tmp_path, "--smoke")
    assert done.returncode == 0, done.stderr
    assert elapsed < 60
    assert list(record["workloads"]) == list(WORKLOAD_NAMES)
    for name, workload in record["workloads"].items():
        for metric in (*END_TO_END, *PRINTED_ONLY):
            assert workload["metrics"][metric.name]["unit"] == metric.unit, (
                name, metric.name)
        assert workload["metrics"]["fail_ratio"]["value"] == 0
    # a smoke run is one pass, and the same cells offload the same MACs in
    # either engine mode: MACs = kMAC/s x slices x seconds per slice
    macs = {name: record["workloads"][name]["metrics"]["kmacs_per_host_s"]["value"]
            * record["workloads"][name]["metrics"]["norm_time"]["value"]
            for name in ("dense_cycle", "dense_vector")}
    assert abs(macs["dense_vector"] / macs["dense_cycle"] - 1) < 1e-9
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(record["environment"]) == {"nproc", "python", "numpy", "git_head"}


def test_smoke_trace_emits_every_per_layer_metric_and_spans(tmp_path):
    done, record, _ = _run(tmp_path, "--smoke", "--trace")
    assert done.returncode == 0, done.stderr
    for name, workload in record["workloads"].items():
        for metric in PER_LAYER:
            assert workload["metrics"][metric.name]["unit"] == metric.unit, (
                name, metric.name)
        # self times of a span tree sum to its root: the traced pass
        assert abs(sum(workload["self_seconds"].values())
                   / workload["self_seconds_total"] - 1) < 0.1
    spans = json.loads((tmp_path / "trace.json").read_text())
    assert set(spans) == set(WORKLOAD_NAMES)
    assert {"id", "name", "start", "end", "parent", "cell"} <= set(
        spans["dense_vector"][0])


def test_injected_raising_cell_fails_the_run(tmp_path):
    done, record, _ = _run(tmp_path, "--smoke", "--workload", "tablev_fidelity",
                           "--inject-fail", "tablev")
    assert done.returncode == 1
    assert record["workloads"]["tablev_fidelity"]["metrics"]["fail_ratio"][
        "value"] > 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_seed_moves_sparse_cycles_but_not_dense(tmp_path):
    def sim_cycles(workload, seed):
        done, record, _ = _run(tmp_path, "--smoke", "--trace", "1",
                               "--workload", workload, "--seed", str(seed))
        assert done.returncode == 0, done.stderr
        return record["workloads"][workload]["metrics"]["engine.sim_cycles"][
            "value"]

    assert sim_cycles("sparse_sigma", 0) != sim_cycles("sparse_sigma", 1)
    assert sim_cycles("dense_cycle", 0) == sim_cycles("dense_cycle", 1)


def _cell(value, q1, q3, samples):
    return {"value": value, "q1": q1, "q3": q3, "samples": samples}


def test_compare_verdicts():
    steady = _cell(100.0, 99.0, 101.0, [99.0, 100.0, 101.0])
    assert verdict(steady, _cell(104.0, 103.0, 105.0, [103, 104, 105]),
                   "lower", 0.10) == "ok"
    assert verdict(steady, _cell(120.0, 119.0, 121.0, [119, 120, 121]),
                   "lower", 0.10) == "worse"
    assert verdict(steady, _cell(80.0, 79.0, 81.0, [79, 80, 81]),
                   "higher", 0.10) == "worse"
    noisy = _cell(100.0, 85.0, 115.0, [80.0, 100.0, 120.0])
    assert verdict(noisy, _cell(115.0, 95.0, 130.0, [90, 115, 135]),
                   "lower", 0.10) == "unresolved"
    # wide spread, but every run of B beats every run of A
    assert verdict(noisy, _cell(60.0, 50.0, 70.0, [45, 60, 75]),
                   "lower", 0.10) == "ok"
