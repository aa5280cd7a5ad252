"""First-order off-chip DRAM model.

The paper uses DRAMsim3 behind a double-buffered Global Buffer; because
prefetching hides latency whenever the compute phase is longer than the
transfer, the first-order quantities that matter are *bytes moved* and
*sustained bandwidth*. This model tracks both, plus a row-buffer hit/miss
latency estimate for the statistics report.
"""

from __future__ import annotations

import math
import operator

from repro.config.hardware import DramConfig
from repro.errors import SimulationError
from repro.noc.base import ClockedComponent


class Dram(ClockedComponent):
    """Bandwidth/latency model of the off-chip memory."""

    def __init__(self, config: DramConfig, clock_ghz: float, name: str = "dram") -> None:
        super().__init__(name)
        self.config = config
        # GB/s divided by Gcycle/s gives bytes per accelerator cycle.
        self.bytes_per_cycle = config.bandwidth_gbps / clock_ghz
        self._last_row: int = -1

    def transfer_cycles(self, num_bytes: int) -> int:
        """Cycles to stream ``num_bytes`` at sustained bandwidth."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if num_bytes == 0:
            return 0
        return max(1, math.ceil(num_bytes / self.bytes_per_cycle))

    def record_read(
        self, num_bytes: int, address: int = 0, times: int = 1
    ) -> None:
        self._record("dram_bytes_read", num_bytes, address, times)

    def record_write(
        self, num_bytes: int, address: int = 0, times: int = 1
    ) -> None:
        self._record("dram_bytes_written", num_bytes, address, times)

    def _record(
        self, counter: str, num_bytes: int, address: int, times: int = 1
    ) -> None:
        """``times`` identical records of ``num_bytes`` at ``address``.

        Only the first can miss: it opens the address's row, so the other
        ``times - 1`` hit. One call leaves the counters and the open row
        that ``times`` single records would.
        """
        try:
            valid = operator.index(times) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise SimulationError(
                f"a DRAM record is made at least once, got times={times!r}"
            )
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        if num_bytes == 0:
            return
        self.counters.add(counter, num_bytes * times)
        row = address // self.config.row_buffer_bytes
        if row == self._last_row:
            self.counters.add("dram_row_hits", times)
        else:
            self.counters.add("dram_row_misses", 1)
            self.counters.add("dram_row_hits", times - 1)
            self._last_row = row

    def new_layer(self) -> None:
        """Forget the open row at a layer boundary.

        Each layer starts with a cold row buffer so its hit/miss counters
        (and everything else in its report) are independent of which
        layer — if any — ran before it. The parallel runner and the
        simulation-result cache rely on this order-independence.
        """
        self._last_row = -1

    def access_latency(self, address: int) -> int:
        """Latency of a demand access given row-buffer state."""
        row = address // self.config.row_buffer_bytes
        if row == self._last_row:
            return self.config.row_hit_latency_cycles
        return self.config.access_latency_cycles

    def reset(self) -> None:
        super().reset()
        self._last_row = -1
