"""Metric names, units, directions and bounds (mirrored in BENCHMARK.json).

``bound`` is the share of the parent's median by which an end-to-end
metric may worsen before it counts as a regression. Per-layer metrics
have no bound; those marked *exact* are simulated quantities that must
be identical between two commits unless a PR says it changes the model.
"""

from collections import namedtuple

EndToEnd = namedtuple("EndToEnd", "name unit better bound")
PerLayer = namedtuple("PerLayer", "name unit better exact")

#: bound for metrics that must not move at all; BENCHMARK.json gives the
#: fidelity metrics this instead of a literal 0 so a deterministic value
#: still has a positive bound to sit under
EXACT_BOUND = 0.001

END_TO_END = (
    # timed seconds / local calibration-slice seconds: the headline
    # host-cost metric, the one later claims name. ISSUE asked for 10 %;
    # on the reference sandbox identical invocations spread 3-9 % on it
    # (README), and the builder's contract wants every spread under a
    # third of its bound, so it has the contract's maximum. A claim
    # smaller than that is settled by paired runs, not by this gate.
    EndToEnd("norm_time", "ratio", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("kmacs_per_host_s", "kMAC/s", "higher", 0.25),
    EndToEnd("cell_ms_p50", "ms", "lower", 0.25),
    EndToEnd("cell_ms_p90", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("tablev_mean_err_pct", "%", "lower", EXACT_BOUND),
    EndToEnd("tablev_max_err_pct", "%", "lower", EXACT_BOUND),
)

#: printed and stored by run.py, not declared in BENCHMARK.json. Raw
#: wall-clock seconds spread ~20 % between identical invocations on a
#: shared host, past any bound a declared metric may have, so they are
#: the reader's cross-check and compare.py leaves them out. A metric that
#: is 0 cannot be declared either: fail_ratio reaches the driver as the
#: result line's attempted/failed fields, and compare.py does check it.
WALL_S = EndToEnd("wall_s", "s", "lower", None)
FAIL_RATIO = EndToEnd("fail_ratio", "ratio", "lower", 0.0)
PRINTED_ONLY = (WALL_S, FAIL_RATIO)

STALL_BUCKETS = (
    "compute_busy", "weight_fill", "pipeline_drain", "dram_stall",
    "noc_distribution", "noc_reduction", "fifo_backpressure",
    "edge_underutilization", "idle",
)


def _t(name):
    return PerLayer(name, "s", "lower", False)


def _exact(name, unit="count", better="lower"):
    return PerLayer(name, unit, better, True)


PER_LAYER = (
    PerLayer("trace_overhead_ratio", "ratio", "lower", False),
    _t("frontend.build_s"),
    _t("frontend.native_forward_s"),
    _exact("frontend.offloaded_layers"),
    _t("tensors.prune_s"),
    _t("tensors.im2col_s"),
    _t("tensors.sparse_encode_s"),
    _t("parallel.record_s"),
    _t("parallel.stage_s.record"),
    _t("parallel.stage_s.simulate"),
    _t("parallel.stage_s.merge"),
    _t("parallel.cache_key_s"),
    _t("parallel.cache_get_s"),
    _t("parallel.cache_put_s"),
    PerLayer("parallel.cache_disk_bytes", "B", "lower", False),
    PerLayer("parallel.pickle_bytes", "B", "lower", False),
    PerLayer("parallel.pool_busy_fraction", "ratio", "higher", False),
    PerLayer("parallel.cache_hits", "count", "higher", False),
    PerLayer("parallel.cache_misses", "count", "lower", False),
    PerLayer("parallel.cache_hit_ratio", "ratio", "higher", False),
    PerLayer("parallel.deduplicated", "count", "higher", False),
    PerLayer("parallel.fallbacks", "count", "lower", False),
    _t("engine.run_s.conv"),
    _t("engine.run_s.gemm"),
    _t("engine.run_s.spmm"),
    _t("engine.run_s.maxpool"),
    _t("engine.systolic_s"),
    _t("engine.mapper_s"),
    _t("engine.functional_s"),
    _t("engine.report_s"),
    _exact("engine.layers.conv"),
    _exact("engine.layers.gemm"),
    _exact("engine.layers.spmm"),
    _exact("engine.layers.maxpool"),
    _exact("engine.sim_cycles", "cycles"),
    _exact("engine.sim_macs", "MAC"),
    PerLayer("engine.host_us_per_sim_kcycle", "us/kcycle", "lower", False),
    _t("memory.dense_ctrl_s"),
    _t("memory.sparse_ctrl_s"),
    _exact("memory.ctrl_cycles", "cycles"),
    _exact("memory.gb_reads"),
    _exact("memory.gb_writes"),
    _exact("memory.dram_bytes_read", "B"),
    _exact("memory.dram_row_hit_ratio", "ratio", "higher"),
    _exact("memory.ctrl_psum_spills"),
    _exact("noc.dn_busy_cycles", "cycles"),
    _exact("noc.dn_elements_sent"),
    _exact("noc.mn_multiplications"),
    _exact("noc.mn_reconfigurations"),
    _exact("noc.rn_adder_ops"),
    _exact("noc.rn_adder_ops_3to1"),
    *(_exact(f"observability.stall.{b}", "cycles") for b in STALL_BUCKETS),
    PerLayer("observability.lens_cost_ratio.trace", "ratio", "lower", False),
    PerLayer("observability.lens_cost_ratio.stalls", "ratio", "lower", False),
    PerLayer("observability.lens_cost_ratio.fabric", "ratio", "lower", False),
    _exact("observability.trace_events"),
    _t("observability.registry_record_s"),
    _t("observability.explain_s"),
    PerLayer("observability.telemetry_overhead_ratio", "ratio", "lower", False),
    _t("ui.cli_cold_s"),
    _t("config.hash_s"),
)
