"""Observability is arithmetically neutral and usable end to end.

The tentpole contract: enabling tracing/metrics must not change
a single simulated number — cycle counts, counters, and functional
outputs are byte-identical with and without instrumentation — while a
traced CLI run produces a valid Chrome trace with the DN/MN/RN (or
systolic) phase spans and the per-layer metrics samples.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import CreateInstance, Observability, __version__
from repro.engine.accelerator import Accelerator
from repro.observability import parse_chrome_trace, validate_chrome_trace
from repro.ui.cli import main


def _run_layers(acc, rng):
    weights = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    activations = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    outputs = [acc.run_conv(weights, activations, name="conv")]
    a = rng.standard_normal((8, 16)).astype(np.float32)
    b = rng.standard_normal((16, 4)).astype(np.float32)
    if acc.sparse_controller is not None:
        a[rng.random(a.shape) < 0.6] = 0.0
        outputs.append(acc.run_spmm(a, b, name="spmm"))
    else:
        outputs.append(acc.run_gemm(a, b, name="gemm"))
    return outputs


@pytest.mark.parametrize("config_fixture", ["small_maeri", "small_tpu",
                                            "small_sigma"])
def test_traced_run_is_identical_to_untraced(config_fixture, request):
    config = request.getfixturevalue(config_fixture)

    plain = Accelerator(config)
    plain_out = _run_layers(plain, np.random.default_rng(7))

    obs = Observability.create(trace=True, metrics_every=16)
    traced = Accelerator(config, observability=obs)
    traced_out = _run_layers(traced, np.random.default_rng(7))

    # cycle-exact: per layer and in total
    assert traced.report.total_cycles == plain.report.total_cycles
    for t_layer, p_layer in zip(traced.report.layers, plain.report.layers):
        assert t_layer.cycles == p_layer.cycles
        assert t_layer.macs == p_layer.macs
    # every activity counter identical => identical energy
    assert (traced.report.merged_counters().as_dict()
            == plain.report.merged_counters().as_dict())
    # functional outputs byte-identical
    for t_out, p_out in zip(traced_out, plain_out):
        assert np.array_equal(t_out, p_out)
    # and the instrumentation actually observed the run
    assert len(obs.tracer.events) > 0
    assert obs.tracer.open_spans == 0
    assert len(obs.metrics) > 0
    # one host-time entry per layer, lenses on or off
    for acc in (plain, traced):
        assert [(row.name, row.kind, row.cycles, row.mode)
                for row in acc.obs.host_time] == [
            (layer.name, layer.kind, layer.cycles, "simulated")
            for layer in acc.report.layers
        ]
        assert all(row.seconds > 0.0 for row in acc.obs.host_time)


def test_trace_covers_network_phases(small_maeri):
    obs = Observability.create(trace=True)
    acc = Accelerator(small_maeri, observability=obs)
    _run_layers(acc, np.random.default_rng(3))
    names = {event.name for event in obs.tracer.events}
    assert any(name.startswith("DN:") for name in names)
    assert any(name.startswith("MN:") for name in names)
    assert any(name.startswith("RN:") for name in names)
    assert any(name.startswith("layer:") for name in names)
    # layer spans bracket their controller spans
    layers = [e for e in obs.tracer.events if e.name.startswith("layer:")]
    inner = [e for e in obs.tracer.events
             if e.phase == "X" and not e.name.startswith("layer:")]
    for event in inner:
        assert any(layer.start <= event.start and event.end <= layer.end
                   for layer in layers)
        assert event.depth >= 1


def test_systolic_trace_has_tile_spans(small_tpu):
    obs = Observability.create(trace=True)
    acc = Accelerator(small_tpu, observability=obs)
    acc.run_gemm(np.ones((8, 8), dtype=np.float32),
                 np.ones((8, 8), dtype=np.float32))
    names = {event.name for event in obs.tracer.events}
    assert "PE:tile" in names


def test_metrics_attached_to_layer_reports(small_maeri):
    obs = Observability.create(metrics_every=8)
    acc = Accelerator(small_maeri, observability=obs)
    _run_layers(acc, np.random.default_rng(5))
    for layer in acc.report.layers:
        if layer.kind == "maxpool":
            continue
        samples = layer.extra.get("metrics")
        assert samples, f"layer {layer.name} has no metrics samples"
        for sample in samples:
            assert sample["cycle"] % 8 == 0


def test_report_metadata_provenance(small_maeri):
    acc = Accelerator(small_maeri)
    metadata = acc.report.as_dict()["metadata"]
    assert metadata["tool"] == "stonne-repro"
    assert metadata["version"] == __version__
    assert metadata["config_name"] == small_maeri.name
    assert len(metadata["config_hash"]) == 16
    # same config => same hash; different config => different hash
    assert metadata["config_hash"] == Accelerator(
        small_maeri
    ).report.as_dict()["metadata"]["config_hash"]


def test_api_exposes_observability(small_sigma):
    obs = Observability.create(trace=True)
    instance = CreateInstance(small_sigma, observability=obs)
    assert instance.observability is obs
    assert instance.accelerator.obs is obs


# ---- CLI end to end --------------------------------------------------------
def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"stonne {__version__}"


def test_cli_traced_conv_end_to_end(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.csv"
    argv = ["conv", "-R", "3", "-S", "3", "-C", "4", "-K", "4",
            "-X", "6", "-Y", "6", "--arch", "maeri",
            "--num-ms", "16", "--bw", "8", "--json"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)

    assert main(argv + ["--trace", str(trace), "--metrics", str(metrics),
                        "--metrics-every", "16", "--profile"]) == 0
    captured = capsys.readouterr()
    traced = json.loads(captured.out)

    # the flags change nothing about the simulated numbers
    assert traced["total_cycles"] == plain["total_cycles"]
    assert traced["energy_uj"] == plain["energy_uj"]

    payload = json.loads(trace.read_text(encoding="utf-8"))
    stats = validate_chrome_trace(payload)
    assert stats["counters"] > 0
    names = stats["span_names"]
    assert any(n.startswith("DN:") for n in names)
    assert any(n.startswith("MN:") for n in names)
    assert any(n.startswith("RN:") for n in names)
    # provenance rides along in the trace header
    assert payload["otherData"]["seed"] == 0
    assert payload["otherData"]["version"] == __version__
    # the metrics CSV has a header plus at least one sample row
    lines = metrics.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("cycle,")
    assert len(lines) > 1
    # the per-layer host-time table went to stderr
    assert "host ms" in captured.err and "cli-conv" in captured.err
    assert "ms wall clock" in captured.err


def test_cli_jsonl_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["gemm", "-M", "8", "-N", "8", "-K", "8", "--arch", "tpu",
                 "--num-ms", "16", "--trace", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert {"name", "component", "phase", "start"} <= set(record)


def test_cli_trace_round_trips_through_parser(tmp_path):
    trace = tmp_path / "trace.json"
    assert main(["spmm", "-M", "16", "-N", "8", "-K", "16",
                 "--num-ms", "32", "--trace", str(trace)]) == 0
    events = parse_chrome_trace(trace.read_text(encoding="utf-8"))
    spans = [e for e in events if e.phase == "X"]
    assert spans
    assert all(e.duration >= 0 for e in spans)


def test_validate_cli_tool(tmp_path, capsys):
    from repro.observability.validate import main as validate_main

    trace = tmp_path / "trace.json"
    assert main(["conv", "-C", "2", "-K", "2", "-X", "5", "-Y", "5",
                 "--arch", "maeri", "--num-ms", "16", "--bw", "8",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert validate_main([str(trace), "--expect", "DN:",
                          "--expect", "RN:"]) == 0
    assert "valid trace" in capsys.readouterr().out
    assert validate_main([str(trace), "--expect", "nope:"]) == 1


# ---- --profile: one host clock per layer, on every path -------------------
def _profile_table(err):
    """Parse ``--profile``'s stderr table: rows, total ms, wall ms, stages."""
    lines = err.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.split()[:2] == ["layer", "kind"])
    rows = []
    for index, line in enumerate(lines[start + 1:], start + 1):
        fields = line.split()
        if fields[0] == "total":
            total_ms, wall_ms = float(fields[1]), float(fields[3])
            assert fields[2] == "of" and fields[4:] == ["ms", "wall", "clock"]
            stages = [l for l in lines[index + 1:] if l.startswith("stages: ")]
            return rows, total_ms, wall_ms, stages
        name, kind, cycles, host, mode = fields
        rows.append((name, kind, int(cycles),
                     None if host == "-" else float(host), mode))
    raise AssertionError(f"no total row in {err!r}")


def test_cli_profile_rows_are_the_same_on_every_path(tmp_path, capsys):
    argv = ["model", "squeezenet", "--arch", "tpu", "--num-ms", "16",
            "--json", "--no-registry", "--profile"]
    cache = str(tmp_path / "cache")
    paths = {
        "serial": [],
        "jobs": ["--jobs", "4"],
        "cold": ["--cache", cache],
        "warm": ["--cache", cache],
        "live": ["--live"],
    }
    tables = {}
    layers = {}
    traces = {}
    for label, extra in paths.items():
        trace = tmp_path / f"{label}.trace.json"
        assert main(argv + extra + ["--trace", str(trace)]) == 0
        # --jobs starts no process: every layer is timed in this one
        assert multiprocessing.active_children() == [], label
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        layers[label] = report["layers"]
        traces[label] = json.loads(trace.read_text())["traceEvents"]
        rows, total_ms, wall_ms, stages = _profile_table(captured.err)
        tables[label] = rows
        # one row per report layer: same names, kinds, cycles, same order
        assert [row[:3] for row in rows] == [
            (layer["name"], layer["kind"], layer["cycles"])
            for layer in report["layers"]
        ]
        for _, _, _, host_ms, mode in rows:
            # a simulated layer cost host time; a replayed one cost none
            assert (host_ms is not None and host_ms > 0.0) == (
                mode == "simulated"
            ), (label, rows)
        assert total_ms == pytest.approx(
            sum(row[3] for row in rows if row[3] is not None), abs=0.02
        )
        # one process's layer clocks cannot overlap
        assert total_ms <= wall_ms, (label, total_ms, wall_ms)
        # the stage line is there exactly when the runner ran
        assert len(stages) == (0 if label == "serial" else 1), captured.err
        if stages:
            assert [part.split()[0] for part in
                    stages[0][len("stages: "):].split(", ")] == [
                "record", "simulate", "merge"]
    assert len(tables["serial"]) == 16
    for label, rows in tables.items():
        assert [row[:3] for row in rows] == [
            row[:3] for row in tables["serial"]], label
    # every path folds repeated shapes, the serial one and the runner's
    # with or without a cache object
    for label in ("serial", "jobs", "live", "cold"):
        assert {row[4] for row in tables[label]} == {
            "simulated", "deduplicated"}, label
        assert [row[4] for row in tables[label]] == \
            [row[4] for row in tables["cold"]], label
    assert {row[4] for row in tables["warm"]} == {"cached"}
    # --jobs 4 gives the classic serial run's payloads and trace events
    # (the runner only adds its parallel_* keys to the metadata)
    assert layers["jobs"] == layers["serial"]
    assert traces["jobs"] == traces["serial"]
