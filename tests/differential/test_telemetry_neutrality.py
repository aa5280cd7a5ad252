"""Differential suite: telemetry must be arithmetically invisible.

Host-side telemetry (counters, gauges, histograms, progress events, the
hotspot sampler) observes the simulator — it must never *be* part of it.
This suite runs the same workloads with telemetry fully off and fully on
(global registry enabled, a live progress emitter attached, the stack
sampler running) and asserts the outputs, per-layer cycle reports and
counter sets are byte-identical, exactly like the serial/parallel/cache
differential next door.
"""

import io
import json

import pytest

from repro.engine.accelerator import Accelerator
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability.telemetry import (
    HotspotSampler,
    ProgressEmitter,
    enable_telemetry,
    telemetry,
)
from repro.parallel import ParallelModelRunner, SimCache
from repro.ui import cli

CASES = [
    (model, arch)
    for model in ("squeezenet", "mobilenets", "bert")
    for arch in ("tpu", "maeri", "sigma")
]


def _workload(model_name):
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    return model, x


def _serial_run(arch, model_name):
    model, x = _workload(model_name)
    acc = Accelerator(architecture_config(arch))
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return output, acc.report


def _parallel_run(arch, model_name, jobs, cache=None, progress=None):
    model, x = _workload(model_name)
    runner = ParallelModelRunner(
        architecture_config(arch), jobs=jobs, cache=cache, progress=progress,
    )
    return runner.run_model(model, x)


def _layer_fingerprint(report):
    return [
        {
            "name": layer.name,
            "kind": layer.kind,
            "cycles": layer.cycles,
            "macs": layer.macs,
            "outputs": layer.outputs,
            "utilization": layer.multiplier_utilization,
            "counters": layer.counters.as_dict(),
        }
        for layer in report.layers
    ]


def _assert_identical(reference, candidate, ref_output, cand_output):
    assert ref_output.tobytes() == cand_output.tobytes()
    assert candidate.total_cycles == reference.total_cycles
    assert _layer_fingerprint(candidate) == _layer_fingerprint(reference)


@pytest.mark.parametrize("model_name,arch", CASES)
def test_telemetry_on_off_identical_serial(model_name, arch):
    off_output, off_report = _serial_run(arch, model_name)
    enable_telemetry(True)
    telemetry().reset()
    try:
        with HotspotSampler(interval_s=0.005):
            on_output, on_report = _serial_run(arch, model_name)
    finally:
        enable_telemetry(False)
        telemetry().reset()
    _assert_identical(off_report, on_report, off_output, on_output)


@pytest.mark.parametrize("model_name,arch", [
    ("squeezenet", "tpu"), ("mobilenets", "maeri"), ("bert", "sigma"),
])
def test_telemetry_on_off_identical_parallel(model_name, arch, tmp_path):
    off = _parallel_run(
        arch, model_name, 1, cache=SimCache(tmp_path / "off")
    )
    enable_telemetry(True)
    telemetry().reset()
    try:
        progress = ProgressEmitter(
            f"model:{model_name}:b1", total=0,
            stream=io.StringIO(), live=True,
            jsonl_path=tmp_path / "progress.jsonl",
        )
        on = _parallel_run(
            arch, model_name, 2,
            cache=SimCache(tmp_path / "on"), progress=progress,
        )
        # telemetry actually observed the run it must not perturb
        pool_tasks = telemetry().get("stonne_pool_tasks_total")
        assert pool_tasks is not None and pool_tasks.total() == on.layers
        assert (tmp_path / "progress.jsonl").exists()
    finally:
        enable_telemetry(False)
        telemetry().reset()
    _assert_identical(off.report, on.report, off.output, on.output)

    # warm pass over the telemetry-on cache, telemetry now off: the cache
    # contents written under telemetry are byte-compatible too
    warm = _parallel_run(
        arch, model_name, 1, cache=SimCache(tmp_path / "on")
    )
    _assert_identical(off.report, warm.report, off.output, warm.output)


def test_profile_flag_is_invisible_in_report_payloads_and_cache(
    tmp_path, capsys, monkeypatch
):
    """``--profile`` prints the per-layer host-time record; the record
    itself never reaches the report, a layer payload or a cache entry."""
    accelerators = []
    real_report = cli._report

    def capturing_report(acc, as_json):
        accelerators.append(acc)
        real_report(acc, as_json)

    monkeypatch.setattr(cli, "_report", capturing_report)
    argv = ["model", "squeezenet", "--arch", "tpu", "--num-ms", "16",
            "--json", "--no-registry"]

    def run(extra, cache_dir):
        assert cli.main(argv + ["--cache", str(cache_dir)] + extra) == 0
        stdout = capsys.readouterr().out
        timestamp = json.loads(stdout)["metadata"]["timestamp"]
        acc = accelerators.pop()
        return (
            stdout.replace(timestamp, "<timestamp>"),
            [layer.to_payload() for layer in acc.report.layers],
            {path.name: path.read_bytes()
             for path in sorted(cache_dir.rglob("*.json"))},
            acc.obs.host_time,
        )

    off_out, off_payloads, off_entries, off_host = run([], tmp_path / "off")
    on_out, on_payloads, on_entries, on_host = run(
        ["--profile"], tmp_path / "on"
    )
    assert on_out == off_out
    assert on_payloads == off_payloads
    assert on_entries == off_entries and on_entries
    # the record is kept either way (the flag only prints it) ...
    assert len(on_host) == len(off_host) == len(on_payloads)
    # ... and none of it leaks into what is stored or reported
    for text in (on_out, json.dumps(on_payloads),
                 *(entry.decode("utf-8") for entry in on_entries.values())):
        assert "host_seconds" not in text and "host_time" not in text
        assert '"mode"' not in text
