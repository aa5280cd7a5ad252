"""Prometheus text exposition and JSONL snapshot exporters."""

import json

from repro.observability.telemetry.export import (
    to_prometheus,
    write_snapshot,
    write_telemetry,
)
from repro.observability.telemetry.facade import Telemetry


def _registry():
    reg = Telemetry(enabled=True)
    hits = reg.counter("stonne_simcache_hits_total", "disk+memory cache hits")
    hits.inc(3.0, shard="abc123")
    hits.inc(shard="def456")
    reg.gauge("stonne_pool_queue_depth", "pending futures").set(4.0)
    hist = reg.histogram(
        "stonne_stage_seconds", "per-stage wall seconds",
        buckets=(0.01, 0.1, 1.0),
    )
    hist.observe(0.05, stage="record")
    hist.observe(0.5, stage="record")
    hist.observe(0.002, stage="merge")
    return reg


def test_exposition_format_shape():
    text = to_prometheus(_registry())
    lines = text.splitlines()
    assert "# HELP stonne_simcache_hits_total disk+memory cache hits" in lines
    assert "# TYPE stonne_simcache_hits_total counter" in lines
    assert 'stonne_simcache_hits_total{shard="abc123"} 3' in lines
    assert "# TYPE stonne_pool_queue_depth gauge" in lines
    assert "stonne_pool_queue_depth 4" in lines
    assert "# TYPE stonne_stage_seconds histogram" in lines
    # cumulative buckets: 0.05 lands in le=0.1 and le=1.0
    assert 'stonne_stage_seconds_bucket{stage="record",le="0.01"} 0' in lines
    assert 'stonne_stage_seconds_bucket{stage="record",le="0.1"} 1' in lines
    assert 'stonne_stage_seconds_bucket{stage="record",le="1.0"} 2' in lines
    assert 'stonne_stage_seconds_bucket{stage="record",le="+Inf"} 2' in lines
    assert 'stonne_stage_seconds_count{stage="record"} 2' in lines
    assert text.endswith("\n")


#: the whole exposition of ``_registry()``: HELP and TYPE headers, sorted
#: label sets, cumulative ``le`` buckets ending in ``+Inf``, then ``_sum``
#: and ``_count`` per histogram series
EXPOSITION = """# HELP stonne_pool_queue_depth pending futures
# TYPE stonne_pool_queue_depth gauge
stonne_pool_queue_depth 4
# HELP stonne_simcache_hits_total disk+memory cache hits
# TYPE stonne_simcache_hits_total counter
stonne_simcache_hits_total{shard="abc123"} 3
stonne_simcache_hits_total{shard="def456"} 1
# HELP stonne_stage_seconds per-stage wall seconds
# TYPE stonne_stage_seconds histogram
stonne_stage_seconds_bucket{stage="merge",le="0.01"} 1
stonne_stage_seconds_bucket{stage="merge",le="0.1"} 1
stonne_stage_seconds_bucket{stage="merge",le="1.0"} 1
stonne_stage_seconds_bucket{stage="merge",le="+Inf"} 1
stonne_stage_seconds_sum{stage="merge"} 0.002
stonne_stage_seconds_count{stage="merge"} 1
stonne_stage_seconds_bucket{stage="record",le="0.01"} 0
stonne_stage_seconds_bucket{stage="record",le="0.1"} 1
stonne_stage_seconds_bucket{stage="record",le="1.0"} 2
stonne_stage_seconds_bucket{stage="record",le="+Inf"} 2
stonne_stage_seconds_sum{stage="record"} 0.55
stonne_stage_seconds_count{stage="record"} 2
"""


def test_round_trip_parse():
    """Every series of a fixed registry, written out exactly."""
    assert to_prometheus(_registry()) == EXPOSITION


def test_label_escaping_round_trips():
    """Quotes, backslashes and newlines are escaped in labels and HELP."""
    reg = Telemetry(enabled=True)
    reg.counter("weird", 'a "quoted\\ help').inc(path='a"b\\c\nd')
    assert to_prometheus(reg) == (
        '# HELP weird a \\"quoted\\\\ help\n'
        "# TYPE weird counter\n"
        'weird{path="a\\"b\\\\c\\nd"} 1\n'
    )


def test_empty_registry_renders_empty():
    assert to_prometheus(Telemetry(enabled=True)) == ""


def test_write_snapshot_appends_jsonl(tmp_path):
    reg = _registry()
    path = tmp_path / "snaps" / "telemetry.jsonl"
    write_snapshot(reg, path, context={"workload": "squeezenet"})
    write_snapshot(reg, path)
    records = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 2
    assert records[0]["context"] == {"workload": "squeezenet"}
    assert "context" not in records[1]
    series = records[0]["telemetry"]["stonne_simcache_hits_total"]["series"]
    assert series == {"shard=abc123": 3.0, "shard=def456": 1.0}


def test_write_telemetry_formats(tmp_path):
    reg = _registry()
    for name in ("metrics.prom", "metrics.txt", "metrics"):
        prom = write_telemetry(reg, tmp_path / name)
        assert prom.read_text(encoding="utf-8") == to_prometheus(reg)
    jsonl = write_telemetry(reg, tmp_path / "metrics.jsonl")
    record = json.loads(jsonl.read_text(encoding="utf-8").splitlines()[0])
    assert record == {"telemetry": reg.snapshot()}
