"""The Output Module (paper Section III).

After every simulated operation the engine produces two artifacts, just
like the original tool:

1. a JSON-ready summary (performance, utilization, energy, area) that
   "facilitates their processing through user-created scripts", and
2. a *counter file* in a simple custom format listing the activity count
   of every component event, from which the energy model computes the
   consumed energy.

:class:`SimulationReport` aggregates per-layer :class:`LayerReport`
records over a whole model execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.config.hardware import HardwareConfig
from repro.engine.area import AreaBreakdown, area_report
from repro.engine.energy import EnergyBreakdown, EnergyTable, energy_report
from repro.errors import ConfigurationError
from repro.noc.base import CounterSet
from repro.observability.provenance import run_metadata

#: The declared universe of activity counters. CounterSet creates
#: counters lazily (components need no pre-declaration), so this
#: registry is the safety net: ``tests/property/test_prop_stall_counters.py``
#: sweeps every fabric and fails on any name incremented but not declared
#: here (a typo'd counter would otherwise price at zero energy or feed
#: the bottleneck-attribution layer a phantom) and on any declared name
#: nothing reaches.
KNOWN_COUNTERS: Dict[str, str] = {
    "ctrl_cycles": "cycles the memory controller was driving the fabric",
    "ctrl_fifo_pops": "sparse-controller FIFO pop operations",
    "ctrl_fifo_pushes": "sparse-controller FIFO push operations",
    "ctrl_gemms_run": "GEMM operations issued by the sparse controller",
    "ctrl_layers_run": "layers issued by the dense controller",
    "ctrl_metadata_elements": "compression metadata elements streamed",
    "ctrl_psum_spills": "partial sums spilled across sparse rounds",
    "ctrl_stationary_loads": "stationary-operand elements loaded",
    "dn_busy_cycles": "cycles the distribution network moved data",
    "dn_elements_sent": "distinct elements injected into the DN",
    "dn_switch_traversals": "DN switch hops taken by all elements",
    "dn_wire_traversals": "DN wire segments traversed by all elements",
    "dram_bytes_read": "bytes read from off-chip DRAM",
    "dram_bytes_written": "bytes written to off-chip DRAM",
    "dram_row_hits": "DRAM accesses hitting the open row buffer",
    "dram_row_misses": "DRAM accesses opening a new row",
    "gb_fills": "Global Buffer elements filled from DRAM",
    "gb_pool_comparisons": "comparator operations for maxpool layers",
    "gb_reads": "elements read from the Global Buffer",
    "gb_writes": "elements written to the Global Buffer",
    "mn_forwarding_hops": "operand hops over MN forwarding links",
    "mn_multiplications": "multiplications executed by the MS array",
    "mn_psum_injections": "partial sums re-injected when folding",
    "mn_reconfigurations": "multiplier-network reconfiguration events",
    "rn_accumulator_ops": "accumulation-buffer add operations",
    "rn_adder_ops": "2:1 adder-switch operations (FAN / RT / LRN)",
    "rn_adder_ops_3to1": "3:1 adder-switch operations (ART)",
    "rn_outputs_written": "reduced outputs leaving the RN",
    "rn_reconfigurations": "reduction-network reconfiguration events",
    "rn_wire_traversals": "RN wire segments traversed by all psums",
    # stall-attribution taxonomy (repro.observability.stalls): these live
    # in LayerReport.extra["stalls"], never in a CounterSet — declaring
    # them here gives `insight explain` one shared registry of names and
    # descriptions
    "stall_compute_busy": "cycles the component advanced useful work",
    "stall_dram_stall": "cycles stalled on off-chip DRAM bandwidth",
    "stall_edge_underutilization": "systolic wavefront-skew cycles with edge PEs idle",
    "stall_fifo_backpressure": "cycles the output/psum drain FIFOs bound the step",
    "stall_idle": "cycles the component provably had no work",
    "stall_noc_distribution": "cycles distribution-network delivery bound the step",
    "stall_noc_reduction": "cycles reduction/merge throughput bound the step",
    "stall_pipeline_drain": "pipeline fill/drain cycles",
    "stall_weight_fill": "configuration + stationary operand fill cycles",
    # fabric-observatory metrics (repro.observability.fabric): these live
    # in LayerReport.extra["fabric"], never in a CounterSet — same shared
    # registry idiom as the stall taxonomy above, for `insight fabric`
    "fabric_dn_level_busy": "per-level DN switch/wire traversals (spatial split)",
    "fabric_mn_level_busy": "per-level MS-array multiplications (spatial split)",
    "fabric_rn_level_busy": "per-level RN adder/accumulator ops (spatial split)",
    "fifo_occupancy_depth": "tier-boundary FIFO concurrent-occupancy proxy",
    "fifo_occupancy_hwm": "tier-boundary FIFO occupancy high-watermark",
    "fifo_occupancy_windows": "tier-boundary FIFO windowed occupancy series",
}

_STR_ONLY = frozenset({str})
_INT_ONLY = frozenset({int})


@dataclass(frozen=True)
class LayerReport:
    """Statistics of one simulated operation (layer / GEMM / SpMM)."""

    name: str
    kind: str
    cycles: int
    macs: int
    outputs: int
    multiplier_utilization: float
    counters: CounterSet
    extra: Dict[str, object] = field(default_factory=dict)

    def energy(self, config: HardwareConfig) -> EnergyBreakdown:
        """Price this layer's activity with the configuration's table."""
        table = EnergyTable.for_config(config.technology_nm, config.dtype)
        return energy_report(
            self.counters,
            table,
            cycles=self.cycles,
            num_ms=config.num_ms,
            gb_size_kb=config.gb_size_kb,
            clock_ghz=config.clock_ghz,
        )

    def to_payload(self) -> Dict:
        """Plain-data form for the model runner's merge and the
        simulation cache.

        Unlike :meth:`as_dict` (the human-facing report row), the payload
        round-trips exactly through :meth:`from_payload`: counters keep
        full precision and no derived quantities are added.
        """
        return {
            "name": self.name,
            "kind": self.kind,
            "cycles": int(self.cycles),
            "macs": int(self.macs),
            "outputs": int(self.outputs),
            "multiplier_utilization": float(self.multiplier_utilization),
            "counters": self.counters.as_dict(),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_payload(cls, payload: Dict, name: Optional[str] = None) -> "LayerReport":
        """Rebuild a report from :meth:`to_payload` data.

        ``name`` overrides the stored layer name — a cached result keyed
        by (layer shape, tile, hardware) is shared between identically
        shaped layers with different names.
        """
        return cls(
            name=name if name is not None else payload["name"],
            kind=payload["kind"],
            cycles=int(payload["cycles"]),
            macs=int(payload["macs"]),
            outputs=int(payload["outputs"]),
            multiplier_utilization=float(payload["multiplier_utilization"]),
            counters=CounterSet.from_counts(payload["counters"]),
            extra=dict(payload.get("extra", {})),
        )

    @staticmethod
    def is_payload(payload: object) -> bool:
        """Whether ``payload`` has every field :meth:`from_payload` reads,
        with the type :meth:`to_payload` writes: ``name`` / ``kind``
        strings, ``cycles`` / ``macs`` / ``outputs`` ints, a numeric
        ``multiplier_utilization``, ``counters`` mapping names to
        non-negative ints and, when present, an ``extra`` dict.

        Exact types, so a JSON ``true`` or ``1.0`` is refused where an
        int belongs: what passes rebuilds into the report that was
        stored, never a coerced neighbour of it.
        """
        if type(payload) is not dict:
            return False
        counters = payload.get("counters")
        if (
            type(payload.get("name")) is not str
            or type(payload.get("kind")) is not str
            or type(payload.get("cycles")) is not int
            or type(payload.get("macs")) is not int
            or type(payload.get("outputs")) is not int
            or type(payload.get("multiplier_utilization")) not in (int, float)
            or type(payload.get("extra", {})) is not dict
            or type(counters) is not dict
        ):
            return False
        if not counters:
            return True
        counts = counters.values()
        return (
            _STR_ONLY.issuperset(map(type, counters))
            and _INT_ONLY.issuperset(map(type, counts))
            and min(counts) >= 0
        )

    def as_dict(self, config: Optional[HardwareConfig] = None) -> Dict:
        record: Dict = {
            "name": self.name,
            "kind": self.kind,
            "cycles": self.cycles,
            "macs": self.macs,
            "outputs": self.outputs,
            "multiplier_utilization": round(self.multiplier_utilization, 6),
        }
        record.update(self.extra)
        if config is not None:
            energy = self.energy(config)
            record["energy_uj"] = {
                "by_group": {k: round(v, 6) for k, v in energy.by_group_uj.items()},
                "static": round(energy.static_uj, 6),
                "dram": round(energy.dram_uj, 6),
                "total": round(energy.total_uj, 6),
            }
        return record


class SimulationReport:
    """Aggregated statistics of a whole simulation session."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.layers: List[LayerReport] = []
        #: run provenance (tool version, config hash, timestamp, ...) —
        #: mutable so callers can stamp extra keys (e.g. the run seed)
        self.metadata: Dict[str, object] = run_metadata(config)
        self._total_cycles = 0

    def append(self, layer: LayerReport) -> None:
        """Add the next layer; layers join the report only through here."""
        self.layers.append(layer)
        self._total_cycles += layer.cycles

    # ---- aggregates -----------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """The running sum of the appended layers' cycles: where the next
        layer starts, read at every layer start without re-summing."""
        return self._total_cycles

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    def timeline(self) -> List[Dict]:
        """Per-layer execution windows on the accelerator clock.

        Layers execute back-to-back (the framework drives them serially,
        as in the paper's Fig. 2b timeline), so each layer's window is
        the running sum of its predecessors' cycles.
        """
        rows: List[Dict] = []
        clock = 0
        for layer in self.layers:
            rows.append(
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "start_cycle": clock,
                    "end_cycle": clock + layer.cycles,
                    "cycles": layer.cycles,
                    "share": (
                        layer.cycles / self.total_cycles
                        if self.total_cycles else 0.0
                    ),
                }
            )
            clock += layer.cycles
        return rows

    def merged_counters(self) -> CounterSet:
        merged = CounterSet()
        for layer in self.layers:
            merged.merge(layer.counters)
        return merged

    def component_utilization(self) -> Dict[str, float]:
        """Busy/usage fractions of the major components over the run.

        The "compute unit utilization" the paper's output module reports,
        extended with the DN port occupancy and GB traffic intensity.
        """
        cycles = self.total_cycles
        if cycles == 0:
            return {}
        merged = self.merged_counters()
        macs = self.total_macs
        usage = {
            "multiplier_utilization": macs / (self.config.num_ms * cycles),
            "dn_port_occupancy": merged.get("dn_busy_cycles") / cycles,
            "gb_read_port_occupancy": min(
                1.0,
                merged.get("gb_reads") / (self.config.dn_bandwidth * cycles),
            ),
            "gb_write_port_occupancy": min(
                1.0,
                merged.get("gb_writes") / (self.config.rn_bandwidth * cycles),
            ),
        }
        return {key: round(value, 6) for key, value in usage.items()}

    def total_energy(self) -> EnergyBreakdown:
        table = EnergyTable.for_config(
            self.config.technology_nm, self.config.dtype
        )
        return energy_report(
            self.merged_counters(),
            table,
            cycles=self.total_cycles,
            num_ms=self.config.num_ms,
            gb_size_kb=self.config.gb_size_kb,
            clock_ghz=self.config.clock_ghz,
        )

    def area(self) -> AreaBreakdown:
        return area_report(self.config)

    # ---- serialization --------------------------------------------------
    def as_dict(self) -> Dict:
        energy = self.total_energy()
        area = self.area()
        return {
            "accelerator": self.config.name,
            "metadata": dict(self.metadata),
            "num_ms": self.config.num_ms,
            "dn_bandwidth": self.config.dn_bandwidth,
            "total_cycles": self.total_cycles,
            "total_macs": self.total_macs,
            "runtime_us": self.total_cycles / (self.config.clock_ghz * 1e3),
            "utilization": self.component_utilization(),
            "energy_uj": {
                "by_group": {k: round(v, 6) for k, v in energy.by_group_uj.items()},
                "static": round(energy.static_uj, 6),
                "dram": round(energy.dram_uj, 6),
                "total": round(energy.total_uj, 6),
            },
            "area_um2": {
                "by_group": {k: round(v, 2) for k, v in area.by_group_um2.items()},
                "total": round(area.total_um2, 2),
            },
            "layers": [layer.as_dict() for layer in self.layers],
        }

    def to_json(self, path: Optional[Union[str, Path]] = None, indent: int = 2) -> str:
        """The general JSON statistics file."""
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_counter_file(self, path: Optional[Union[str, Path]] = None) -> str:
        """The customized counter file: one ``component.event = count`` line
        per activity counter, aggregated over all layers."""
        lines = ["# STONNE-repro activity counter file", f"# accelerator: {self.config.name}"]
        merged = self.merged_counters()
        for name in merged:
            prefix, sep, event = name.partition("_")
            # counters named without a component prefix (no underscore)
            # are written bare so the file parses back to the same name
            key = f"{prefix}.{event}" if sep else prefix
            lines.append(f"{key} = {merged.get(name)}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text


def parse_counter_file(text: str) -> CounterSet:
    """Read a counter file back into a :class:`CounterSet` (round-trip)."""
    counters = CounterSet()
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        try:
            count = int(value)
        except ValueError:
            count = -1
        if count < 0:
            raise ConfigurationError(
                f"counter file line {number}: expected 'component.event = "
                f"<count>' with a non-negative integer count, got {line!r}"
            )
        component, sep, event = key.strip().partition(".")
        name = f"{component}_{event}" if sep else component
        counters.add(name, count)
    return counters
