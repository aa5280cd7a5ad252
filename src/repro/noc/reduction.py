"""Reduction Networks: psum accumulation (paper Section IV-A-3).

- :class:`ReductionTree` (RT) — a plain binary adder tree; reduces one
  fixed power-of-two cluster spanning the whole fabric.
- :class:`AugmentedReductionTree` (ART / ART+ACC) — MAERI's tree with 3:1
  adders and same-level horizontal links, supporting multiple
  arbitrary-size non-blocking virtual reduction trees; the ``+ACC``
  variant adds accumulators at the outputs so fold psums pipeline without
  looping back through the distribution network.
- :class:`ForwardingAdderNetwork` (FAN) — SIGMA's cheaper equivalent of
  ART built from 2:1 adders with forwarding links.
- :class:`LinearReductionNetwork` (LRN) — the sequential accumulation used
  by rigid designs (TPU, Eyeriss, ShiDianNao): one accumulator per lane,
  one operand folded in per cycle.

Timing contract used by the engines: tree-based RNs are *pipelined* — they
accept one new wave of products per cycle and add ``reduction_latency``
cycles of fill/drain; the linear RN serializes each cluster.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.config.hardware import ReductionKind

from repro.errors import ConfigurationError, MappingError
from repro.noc.base import ClockedComponent, Ints, run_sums


def _log2_ceil(value: int) -> int:
    return max(0, math.ceil(math.log2(value))) if value > 1 else 0


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class ReductionNetwork(ClockedComponent):
    """Common cluster bookkeeping for all RN fabrics."""

    #: adder fan-in of the switch type (3 for ART, 2 otherwise)
    adder_fan_in = 2
    #: activity counter name for adder operations; ART's 3:1 switches are
    #: priced separately by the energy table
    adder_counter = "rn_adder_ops"
    #: whether arbitrary simultaneous cluster sizes are supported
    variable_clusters = False
    #: whether fold psums accumulate at the RN output (ART+ACC / FAN+ACC)
    has_accumulators = False

    def __init__(self, num_inputs: int, bandwidth: int, name: str) -> None:
        super().__init__(name)
        if num_inputs < 2:
            raise ConfigurationError("an RN needs at least 2 inputs")
        if not 1 <= bandwidth <= num_inputs:
            raise ConfigurationError(
                f"RN bandwidth must be in [1, {num_inputs}], got {bandwidth}"
            )
        self.num_inputs = num_inputs
        self.bandwidth = bandwidth
        self._cluster_sizes: tuple = ()
        #: :meth:`fabric_reduction_levels` by cluster size, filled as the
        #: fabric ledger charges them
        self._fabric_rows: Dict[int, Tuple[int, ...]] = {}

    # ---- configuration --------------------------------------------------
    def configure_clusters(self, cluster_sizes: Sequence[int]) -> None:
        sizes = tuple(map(int, cluster_sizes))
        # the layout in place was checked when it was installed (here or
        # through verify_rounds); only a different one needs the proof
        if sizes != self._cluster_sizes or not sizes:
            if min(sizes, default=1) < 1:
                raise MappingError("cluster sizes must be positive")
            if sum(sizes) > self.num_inputs:
                raise MappingError(
                    f"clusters need {sum(sizes)} RN inputs but only "
                    f"{self.num_inputs} exist"
                )
            self._validate_clusters(sizes)
            self._cluster_sizes = sizes
        self.counters.add("rn_reconfigurations", 1)

    def _validate_clusters(self, sizes: tuple) -> None:
        if self.variable_clusters:
            # arbitrary simultaneous sizes must embed as non-blocking
            # virtual trees over the physical substrate — proven from the
            # aligned-block table, not by constructing every adder node
            # (repro.noc.art_allocation)
            from repro.noc.art_allocation import verify_non_blocking

            verify_non_blocking(sizes, self.num_inputs)
            return
        if len(set(sizes)) > 1:
            raise MappingError(
                f"{type(self).__name__} only supports uniform cluster sizes, "
                f"got {sorted(set(sizes))}"
            )

    # ---- a table of configurations (the sparse controller's rounds) -----
    def verify_rounds(self, sizes: np.ndarray, offsets: np.ndarray) -> None:
        """Check a whole table of partitions, round ``i`` being
        ``sizes[offsets[i]:offsets[i + 1]]``, as :meth:`configure_clusters`
        would check each of them; nothing is configured."""
        if sizes.size and sizes.min() < 1:
            raise MappingError("cluster sizes must be positive")
        used = run_sums(sizes, offsets)
        over = np.flatnonzero(used > self.num_inputs)
        if over.size:
            raise MappingError(
                f"clusters need {int(used[over[0]])} RN inputs but only "
                f"{self.num_inputs} exist"
            )
        if self.variable_clusters:
            from repro.noc.art_allocation import verify_non_blocking_rounds

            verify_non_blocking_rounds(sizes, offsets, self.num_inputs)
            return
        bounds = offsets.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            self._validate_clusters(tuple(sizes[lo:hi].tolist()))

    def record_reconfigurations(
        self, count: int, cluster_sizes: Sequence[int]
    ) -> None:
        """``count`` reconfigurations in a row, through partitions
        :meth:`verify_rounds` accepted, ending at ``cluster_sizes``."""
        self._cluster_sizes = tuple(map(int, cluster_sizes))
        self.counters.add("rn_reconfigurations", count)

    @property
    def cluster_sizes(self) -> tuple:
        return self._cluster_sizes

    # ---- timing -----------------------------------------------------------
    @abc.abstractmethod
    def reduction_latency(self, cluster_size: int) -> int:
        """Cycles from products entering the RN to the cluster psum exiting."""

    @property
    def pipelined(self) -> bool:
        """Whether a new wave of products can enter every cycle."""
        return True

    def output_cycles(self, outputs: Ints) -> Ints:
        """Cycles to push ``outputs`` completed psums to the write port
        (one count, or a column of them)."""
        cycles: Ints = -(-outputs // self.bandwidth)
        return cycles

    # ---- spatial fabric decomposition -----------------------------------
    def fabric_level_widths(self) -> List[int]:
        """Physical adders per tree level, leaf-adjacent first."""
        from repro.observability.fabric import tournament_levels

        return tournament_levels(self.num_inputs)

    def fabric_reduction_levels(self, cluster_size: int) -> List[int]:
        """Per-level adder ops of one cluster wave, leaf-adjacent first.

        A ``cluster_size``-leaf virtual tree exercises the tournament
        halving of its leaves — the entries sum to ``cluster_size - 1``,
        exactly the :attr:`adder_counter` charge of one wave — padded
        with zeros to the physical depth so every cluster shape charges
        the same level geometry.
        """
        from repro.observability.fabric import tournament_levels

        counts = tournament_levels(cluster_size)
        return counts + [0] * (len(self._fabric_widths) - len(counts))

    @functools.cached_property
    def _fabric_widths(self) -> Tuple[int, ...]:
        """:meth:`fabric_level_widths`, computed once: it depends only on
        the instance, and every fabric charge passes it."""
        return tuple(self.fabric_level_widths())

    def _record_fabric_reductions(self, cluster_size: int, waves: int) -> None:
        fabric = self.obs.fabric
        if fabric is None:
            return
        row = self._fabric_rows.get(cluster_size)
        if row is None:
            row = tuple(self.fabric_reduction_levels(cluster_size))
            self._fabric_rows[cluster_size] = row
        fabric.charge_levels(
            "rn", self.adder_counter, row, self._fabric_widths, times=waves
        )

    # ---- activity -----------------------------------------------------------
    def record_reduction_wave(self, cluster_sizes: Sequence[int]) -> None:
        """Account one wave of cluster reductions (adders + wires)."""
        adders = sum(max(0, size - 1) for size in cluster_sizes)
        wires = sum(self._wave_wires(size) for size in cluster_sizes)
        self.counters.add(self.adder_counter, adders)
        self.counters.add("rn_wire_traversals", wires)
        for size in cluster_sizes:
            self._record_fabric_reductions(int(size), 1)

    def record_cluster_reductions(self, cluster_size: int, waves: int) -> None:
        """Account ``waves`` reduction waves of one ``cluster_size`` cluster.

        The shared charging site of the dense and sparse controllers —
        replacing their former inline counter adds, byte for byte: the
        wire charge
        is the inline sites' ``2*size - 1`` (deliberately *not*
        :meth:`_wave_wires`, which the linear RN narrows), and the fabric
        split sums to the adder charge exactly.
        """
        size = int(cluster_size)
        if waves <= 0 or size <= 0:
            return
        self.counters.add(self.adder_counter, waves * max(0, size - 1))
        self.counters.add("rn_wire_traversals", waves * (2 * size - 1))
        self._record_fabric_reductions(size, waves)

    def record_cluster_table(self, sizes: np.ndarray, waves: int) -> None:
        """:meth:`record_cluster_reductions` of ``waves`` waves for every
        cluster of a table (sizes are never negative: ``verify_rounds``
        checked them). A cluster of ``s >= 1`` inputs costs ``s - 1``
        adders and ``2s - 1`` wires a wave, so the table's charges are
        two sums; only the fabric ledger is charged per distinct size."""
        if waves <= 0:
            return
        total = int(sizes.sum())
        clusters = np.count_nonzero(sizes)
        self.counters.add(self.adder_counter, waves * (total - clusters))
        self.counters.add("rn_wire_traversals", waves * (2 * total - clusters))
        if self.obs.fabric is not None:
            clusters_of = np.bincount(sizes)
            for size in np.flatnonzero(clusters_of).tolist():
                if size:
                    self._record_fabric_reductions(
                        size, waves * int(clusters_of[size])
                    )

    def _wave_wires(self, cluster_size: int) -> int:
        # Every product and every intermediate psum travels one link.
        return 2 * cluster_size - 1 if cluster_size else 0

    def record_accumulations(self, count: int) -> None:
        """Fold psum accumulations at the RN output accumulators."""
        self.counters.add("rn_accumulator_ops", count)

    def record_outputs(self, count: int) -> None:
        self.counters.add("rn_outputs_written", count)

    def reset(self) -> None:
        super().reset()
        self._cluster_sizes = ()


class ReductionTree(ReductionNetwork):
    """Plain binary adder tree: fixed power-of-two clusters."""

    adder_fan_in = 2
    variable_clusters = False

    def __init__(self, num_inputs: int, bandwidth: int, name: str = "rn-rt") -> None:
        super().__init__(num_inputs, bandwidth, name)
        self.depth = _log2_ceil(num_inputs)

    def _validate_clusters(self, sizes: tuple) -> None:
        super()._validate_clusters(sizes)
        for size in sorted(set(sizes)):
            if not _is_power_of_two(size):
                raise MappingError(
                    f"a plain reduction tree needs power-of-two clusters, got {size}"
                )

    def reduction_latency(self, cluster_size: int) -> int:
        return _log2_ceil(cluster_size)

    @property
    def num_adders(self) -> int:
        return self.num_inputs - 1


class AugmentedReductionTree(ReductionNetwork):
    """MAERI's ART: 3:1 adder switches + horizontal forwarding links.

    Arbitrary simultaneous cluster sizes map as non-blocking virtual trees
    over the single physical substrate. With ``accumulate=True`` (ART+ACC)
    a bank of accumulators sits at the outputs so consecutive fold psums
    pipeline without any loop through the DN.
    """

    adder_fan_in = 3
    variable_clusters = True
    adder_counter = "rn_adder_ops_3to1"

    def __init__(
        self,
        num_inputs: int,
        bandwidth: int,
        accumulate: bool = False,
        name: str = "rn-art",
    ) -> None:
        super().__init__(num_inputs, bandwidth, name)
        self.depth = _log2_ceil(num_inputs)
        self.has_accumulators = accumulate

    def reduction_latency(self, cluster_size: int) -> int:
        # 3:1 switches collapse levels slightly, but the virtual tree still
        # spans ceil(log2(size)) levels of the physical substrate.
        return _log2_ceil(cluster_size) + (1 if self.has_accumulators else 0)

    @property
    def num_adders(self) -> int:
        return self.num_inputs - 1


class ForwardingAdderNetwork(ReductionNetwork):
    """SIGMA's FAN: ART-equivalent flexibility from cheaper 2:1 adders.

    FAN always ships with output accumulators in SIGMA, so fold psums
    pipeline exactly as with ART+ACC.
    """

    adder_fan_in = 2
    variable_clusters = True
    has_accumulators = True

    def __init__(self, num_inputs: int, bandwidth: int, name: str = "rn-fan") -> None:
        super().__init__(num_inputs, bandwidth, name)
        self.depth = _log2_ceil(num_inputs)

    def reduction_latency(self, cluster_size: int) -> int:
        return _log2_ceil(cluster_size) + 1

    @property
    def num_adders(self) -> int:
        return self.num_inputs - 1


class LinearReductionNetwork(ReductionNetwork):
    """Sequential per-lane accumulation (TPU / Eyeriss / ShiDianNao).

    Each cluster owns an accumulator that folds in one product per cycle,
    so reducing a cluster of size ``n`` takes ``n`` cycles and the network
    is **not** wave-pipelined across distinct clusters sharing a lane.
    """

    adder_fan_in = 2
    variable_clusters = False
    has_accumulators = True

    def __init__(self, num_inputs: int, bandwidth: int, name: str = "rn-lrn") -> None:
        super().__init__(num_inputs, bandwidth, name)

    def reduction_latency(self, cluster_size: int) -> int:
        return max(1, cluster_size)

    @property
    def pipelined(self) -> bool:
        return False

    def _wave_wires(self, cluster_size: int) -> int:
        # products hop through the accumulator chain once each
        return cluster_size

    def fabric_level_widths(self) -> List[int]:
        # one flat bank of per-lane accumulators — a single level
        return [self.num_inputs]

    def fabric_reduction_levels(self, cluster_size: int) -> List[int]:
        return [max(0, int(cluster_size) - 1)]

    @property
    def num_adders(self) -> int:
        return self.num_inputs


def build_reduction_network(kind: ReductionKind, num_inputs: int, bandwidth: int, accumulation_buffer: bool = True) -> ReductionNetwork:
    """Factory keyed on :class:`repro.config.ReductionKind`."""
    from repro.config.hardware import ReductionKind

    if kind is ReductionKind.RT:
        return ReductionTree(num_inputs, bandwidth)
    if kind is ReductionKind.ART:
        return AugmentedReductionTree(num_inputs, bandwidth, accumulate=accumulation_buffer)
    if kind is ReductionKind.ART_ACC:
        return AugmentedReductionTree(num_inputs, bandwidth, accumulate=True, name="rn-art-acc")
    if kind is ReductionKind.FAN:
        return ForwardingAdderNetwork(num_inputs, bandwidth)
    if kind is ReductionKind.LINEAR:
        return LinearReductionNetwork(num_inputs, bandwidth)
    raise ConfigurationError(f"unknown reduction network kind: {kind!r}")
