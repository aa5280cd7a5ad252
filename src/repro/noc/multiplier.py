"""Multiplier Networks: the compute tier (paper Section IV-A-2).

A Multiplier Network is a row of Multiplier Switches (MSs). Each MS can be
configured as a *multiplier* (holds a stationary operand, multiplies it
with a streamed operand) or as a *forwarder* (passes psums from the GB to
the RN so folding works without an accumulation buffer).

Two topologies:

- :class:`MultiplierNetwork` in ``linear`` mode (LMN) adds forwarding links
  between neighbouring MSs, letting convolution sliding windows reuse
  operands spatially instead of re-reading the Global Buffer (MAERI, TPU).
- ``disabled`` mode (DMN) removes those links — the fabric of pure-GEMM
  accelerators (SIGMA, SpArch) where sliding-window reuse does not exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.config.hardware import MultiplierKind

from repro.errors import ConfigurationError, MappingError
from repro.noc.base import ClockedComponent, run_sums


class MultiplierNetwork(ClockedComponent):
    """A configurable row of multiplier switches."""

    def __init__(
        self, num_ms: int, forwarding: bool, name: str = "mn"
    ) -> None:
        super().__init__(name)
        if num_ms < 1:
            raise ConfigurationError("a multiplier network needs at least 1 MS")
        self.num_ms = num_ms
        self.forwarding = forwarding
        self._cluster_sizes: tuple = ()
        self._forwarder_count = 0

    # ---- configuration (driven by the Mapper through the Config Unit) ----
    def configure_clusters(
        self, cluster_sizes: Sequence[int], forwarders: int = 0
    ) -> None:
        """Partition the MS row into virtual-neuron clusters.

        ``cluster_sizes`` lists the multipliers per simultaneous dot
        product; ``forwarders`` MSs are set aside to inject psums for
        folding. The total must fit the physical row.
        """
        sizes = tuple(map(int, cluster_sizes))
        if min(sizes, default=1) < 1:
            raise MappingError("cluster sizes must be positive")
        used = sum(sizes) + forwarders
        if used > self.num_ms:
            raise MappingError(
                f"mapping needs {used} multiplier switches but only "
                f"{self.num_ms} exist"
            )
        self._cluster_sizes = sizes
        self._forwarder_count = forwarders
        self.counters.add("mn_reconfigurations", 1)

    # ---- a table of configurations (the sparse controller's rounds) -----
    def verify_rounds(self, sizes: np.ndarray, offsets: np.ndarray) -> None:
        """Check a whole table of partitions, round ``i`` being
        ``sizes[offsets[i]:offsets[i + 1]]``, as :meth:`configure_clusters`
        would check each of them (no forwarders); nothing is configured."""
        if sizes.size and sizes.min() < 1:
            raise MappingError("cluster sizes must be positive")
        used = run_sums(sizes, offsets)
        over = np.flatnonzero(used > self.num_ms)
        if over.size:
            raise MappingError(
                f"mapping needs {int(used[over[0]])} multiplier switches but "
                f"only {self.num_ms} exist"
            )

    def record_reconfigurations(
        self, count: int, cluster_sizes: Sequence[int]
    ) -> None:
        """``count`` reconfigurations in a row, through partitions
        :meth:`verify_rounds` accepted, ending at ``cluster_sizes``."""
        self._cluster_sizes = tuple(map(int, cluster_sizes))
        self._forwarder_count = 0
        self.counters.add("mn_reconfigurations", count)

    @property
    def cluster_sizes(self) -> tuple:
        return self._cluster_sizes

    @property
    def multipliers_in_use(self) -> int:
        return sum(self._cluster_sizes)

    @property
    def forwarder_count(self) -> int:
        return self._forwarder_count

    @property
    def utilization(self) -> float:
        """Fraction of MSs doing useful multiplies under this mapping."""
        return self.multipliers_in_use / self.num_ms

    # ---- activity ------------------------------------------------------
    def record_multiplications(self, count: int) -> None:
        if count < 0:
            raise ValueError("multiplication count must be non-negative")
        self.counters.add("mn_multiplications", count)
        fabric = self.obs.fabric
        if fabric is not None and count:
            # one flat level of MS links; the finalize-time spread narrows
            # to the multipliers the mapping actually uses
            fabric.charge_levels(
                "mn",
                "mn_multiplications",
                [count],
                [self.num_ms],
                active=[self.multipliers_in_use or self.num_ms],
            )

    def record_round_multiplications(
        self, counts: np.ndarray, in_use: np.ndarray
    ) -> None:
        """:meth:`record_multiplications` of ``counts[i]`` under a mapping
        that uses ``in_use[i] >= 1`` multipliers, for every ``i``."""
        if counts.size and counts.min() < 0:
            raise ValueError("multiplication count must be non-negative")
        total = int(counts.sum())
        self.counters.add("mn_multiplications", total)
        fabric = self.obs.fabric
        if fabric is not None and total:
            fabric.charge_levels(
                "mn",
                "mn_multiplications",
                [total],
                [self.num_ms],
                active=[int(in_use[counts > 0].min())],
            )

    def record_forwarding(self, count: int) -> None:
        """Operand hops over the neighbour forwarding links (LMN only)."""
        if count < 0:
            raise ValueError("forwarding count must be non-negative")
        if count and not self.forwarding:
            raise MappingError(
                "forwarding links are disabled in this multiplier network (DMN)"
            )
        self.counters.add("mn_forwarding_hops", count)

    def record_psum_injections(self, count: int) -> None:
        """Psums pushed through forwarder MSs (folding without acc buffer)."""
        self.counters.add("mn_psum_injections", count)

    def reset(self) -> None:
        super().reset()
        self._cluster_sizes = ()
        self._forwarder_count = 0


def build_multiplier_network(kind: MultiplierKind, num_ms: int) -> MultiplierNetwork:
    """Factory keyed on :class:`repro.config.MultiplierKind`."""
    from repro.config.hardware import MultiplierKind

    if kind is MultiplierKind.LINEAR:
        return MultiplierNetwork(num_ms, forwarding=True, name="mn-linear")
    if kind is MultiplierKind.DISABLED:
        return MultiplierNetwork(num_ms, forwarding=False, name="mn-disabled")
    raise ConfigurationError(f"unknown multiplier network kind: {kind!r}")
