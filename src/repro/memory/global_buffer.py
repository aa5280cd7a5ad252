"""On-chip Global Buffer (GB).

A banked SRAM with independent read ports feeding the distribution network
and write ports draining the reduction network. The read bandwidth in
elements/cycle is the headline parameter of the paper's Fig. 1b sweep; the
GB also dominates the area of every modeled accelerator (Fig. 5c).

The buffer is double-buffered against DRAM: while one half serves the
fabric, the other prefetches the next tile. :meth:`dram_stall_cycles`
exposes the only visible timing effect — transfers longer than the compute
phase they hide behind.
"""

from __future__ import annotations

import math

from repro.config.hardware import DataType
from repro.errors import ConfigurationError
from repro.noc.base import ClockedComponent


class GlobalBuffer(ClockedComponent):
    """Banked on-chip SRAM with element-granularity activity counters."""

    def __init__(
        self,
        size_kb: int,
        banks: int,
        read_bandwidth: int,
        write_bandwidth: int,
        dtype: DataType,
        name: str = "gb",
    ) -> None:
        super().__init__(name)
        if size_kb < 1:
            raise ConfigurationError("GB size must be >= 1 KB")
        if banks < 1:
            raise ConfigurationError("GB needs at least one bank")
        if read_bandwidth < 1 or write_bandwidth < 1:
            raise ConfigurationError("GB port bandwidths must be >= 1")
        self.size_kb = size_kb
        self.banks = banks
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.dtype = dtype

    @property
    def capacity_elements(self) -> int:
        return self.size_kb * 1024 // self.dtype.bytes_per_element

    @property
    def half_capacity_elements(self) -> int:
        """Capacity of one double-buffer half."""
        return self.capacity_elements // 2

    def fits(self, working_set_elements: int) -> bool:
        """Whether a layer working set fits one double-buffer half."""
        return working_set_elements <= self.half_capacity_elements

    # ---- activity ------------------------------------------------------
    def record_reads(self, elements: int) -> None:
        if elements < 0:
            raise ValueError("read count must be non-negative")
        self.counters.add("gb_reads", elements)

    def record_writes(self, elements: int) -> None:
        if elements < 0:
            raise ValueError("write count must be non-negative")
        self.counters.add("gb_writes", elements)

    def record_fill(self, elements: int) -> None:
        """Elements written into the GB by the DRAM prefetcher (the
        counter; :meth:`mark_fill` puts the prefetch on the trace)."""
        if elements < 0:
            raise ValueError("fill count must be non-negative")
        self.counters.add("gb_fills", elements)

    def mark_fill(self, elements: int) -> None:
        """Trace one prefetch of ``elements`` as a ``GB:fill`` instant."""
        tracer = self.obs.tracer
        if tracer.enabled:
            # the prefetch overlaps the layer (double buffering), so mark
            # it as an instant at the layer's start rather than a window
            tracer.instant("GB:fill", self.name, self.obs.base,
                           elements=elements)

    # ---- timing helpers -------------------------------------------------
    def read_cycles(self, elements: int) -> int:
        return math.ceil(elements / self.read_bandwidth) if elements else 0

    def write_cycles(self, elements: int) -> int:
        return math.ceil(elements / self.write_bandwidth) if elements else 0

    def dram_stall_cycles(self, transfer_cycles: int, compute_cycles: int) -> int:
        """Stall cycles left over after double buffering hides a transfer."""
        return max(0, transfer_cycles - compute_cycles)
