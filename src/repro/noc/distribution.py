"""Distribution Networks: GB → multiplier operand delivery.

Three fabrics from the paper (Section IV-A-1):

- :class:`TreeNetwork` — MAERI's replicated binary distribution trees;
  single-cycle unicast/multicast/broadcast, one tree per GB read port.
- :class:`BenesNetwork` — SIGMA's N-input N-output non-blocking Benes
  topology with ``2*log2(N) + 1`` switch levels; single-cycle
  unicast/multicast/broadcast.
- :class:`PointToPointNetwork` — unicast-only links, the building block of
  systolic-array operand delivery (TPU).

The timing contract shared by the engines is *bandwidth-limited delivery*:
the Global Buffer can hand the fabric at most ``bandwidth`` elements per
cycle. Multicast-capable fabrics charge one bandwidth slot per **unique**
value regardless of fan-out (this is precisely the mechanism whose loss
makes analytical models optimistic — Fig. 1b); the point-to-point fabric
charges one slot per destination.

Deliveries are modeled with a pending-work queue that ``skip_cycles``
drains at ``bandwidth`` slots a clock, whole phases at once (the per-clock
drain it equals is ``ReadPorts`` in ``tests/oracles/clock.py``).
``delivery_cycles``/``record_delivery`` price one delivery, and
``delivery_cycles_of``/``schedule_deliveries``/``record_scheduled`` the
same for a whole sequence of deliveries held as int64 columns (the
sparse controller's round table). Each fabric's cost formulas are
written once, in arithmetic that reads the same for one ``int`` and for
a column.
"""

from __future__ import annotations

import abc
import functools
import math
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.config.hardware import DistributionKind

from repro.errors import ConfigurationError, SimulationError
from repro.noc.base import ClockedComponent, Ints


def _log2_ceil(value: int) -> int:
    return max(1, math.ceil(math.log2(value))) if value > 1 else 0


class DeliverySchedule(NamedTuple):
    """A sequence of deliveries, costed but not yet accounted
    (:meth:`DistributionNetwork.schedule_deliveries`)."""

    #: one row per delivery: switch hops, wire hops, elements sent, busy
    #: cycles, drain cycles — then, under a fabric ledger, one column
    #: per fabric level
    costs: np.ndarray
    #: slots queued before the first delivery and after each one's drain
    pending: np.ndarray


def _at_least(value: Ints, floor: int) -> Ints:
    """``max(value, floor)``, entry by entry when ``value`` is a column."""
    if type(value) is int:
        return value if value > floor else floor
    lifted: Ints = np.maximum(value, floor)
    return lifted


class DistributionNetwork(ClockedComponent):
    """Common bandwidth/queue behaviour for all DN fabrics."""

    #: aggregate counter the per-level fabric decomposition must sum to
    #: (the point-to-point fabric has no switches and anchors wires)
    fabric_counter = "dn_switch_traversals"

    def __init__(self, name: str, num_leaves: int, bandwidth: int) -> None:
        super().__init__(name)
        if num_leaves < 2:
            raise ConfigurationError("a DN needs at least 2 leaves")
        if not 1 <= bandwidth <= num_leaves:
            raise ConfigurationError(
                f"DN bandwidth must be in [1, {num_leaves}], got {bandwidth}"
            )
        self.num_leaves = num_leaves
        self.bandwidth = bandwidth
        self._pending_slots = 0

    @property
    def supports_multicast(self) -> bool:
        """Whether one value can reach many MSs in one bandwidth slot."""
        return self._bandwidth_slots(1, 2) == 1

    # ---- topology-specific costs -------------------------------------
    @property
    @abc.abstractmethod
    def pipeline_latency(self) -> int:
        """Cycles for one element to traverse GB → MS (pipeline depth)."""

    # (each takes one delivery as ints or a column of deliveries; a
    # delivery without values has no destinations either, see _validate)
    @abc.abstractmethod
    def _bandwidth_slots(self, unique_values: Ints, destinations: Ints) -> Ints:
        """GB read-port slots consumed by one delivery."""

    @abc.abstractmethod
    def _switch_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        """Switch activations charged to the energy model."""

    @abc.abstractmethod
    def _wire_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        """Link activations charged to the energy model."""

    # ---- spatial fabric decomposition --------------------------------
    @abc.abstractmethod
    def fabric_level_widths(self) -> List[int]:
        """Physical links per tree level, root-first."""

    @functools.cached_property
    def _fabric_widths(self) -> Tuple[int, ...]:
        """:meth:`fabric_level_widths`, computed once: it depends only on
        the instance, and the charging sites pass it on every charge."""
        return tuple(self.fabric_level_widths())

    @abc.abstractmethod
    def fabric_level_traversals(
        self, unique_values: Ints, destinations: Ints
    ) -> List[Ints]:
        """Per-level split of one delivery's :attr:`fabric_counter` charge.

        The entries sum *exactly* to what :meth:`enqueue` adds to the
        anchor counter for the same arguments — the consistency
        invariant the fabric ledger enforces at finalize.
        """

    def record_fabric_traversals(
        self, unique_values: int, destinations: int, times: int = 1
    ) -> None:
        """Charge ``times`` deliveries' spatial split to the fabric ledger
        (:meth:`enqueue` calls this with its repeat count)."""
        fabric = self.obs.fabric
        if fabric is None:
            return
        fabric.charge_levels(
            "dn",
            self.fabric_counter,
            self.fabric_level_traversals(unique_values, destinations),
            self._fabric_widths,
            times=times,
        )

    # ---- queue/cycle protocol ----------------------------------------
    def enqueue(
        self, unique_values: int, destinations: int, times: int = 1
    ) -> None:
        """Queue ``times`` identical deliveries of ``unique_values``
        distinct elements that together reach ``destinations`` multiplier
        switches (the controllers batch a plan segment's repeats)."""
        self._validate(unique_values, destinations)
        if times < 1:
            raise SimulationError(
                f"a delivery is queued at least once, got times={times}"
            )
        self._pending_slots += self._bandwidth_slots(unique_values, destinations) * times
        self.counters.add("dn_switch_traversals", self._switch_traversals(unique_values, destinations) * times)
        self.counters.add("dn_wire_traversals", self._wire_traversals(unique_values, destinations) * times)
        self.counters.add("dn_elements_sent", unique_values * times)
        self.record_fabric_traversals(unique_values, destinations, times=times)

    @property
    def pending_slots(self) -> int:
        return self._pending_slots

    def skip_cycles(self, count: int) -> None:
        """Advance ``count`` clocks, each handing the fabric up to
        ``bandwidth`` queued slots; a clock that hands over any is busy.
        A negative count raises :class:`~repro.errors.SimulationError`
        before anything moves."""
        if count < 0:
            raise SimulationError(
                f"cannot skip a negative number of cycles, got count={count}"
            )
        busy = min(count, math.ceil(self._pending_slots / self.bandwidth))
        self._pending_slots = max(0, self._pending_slots - count * self.bandwidth)
        self.counters.add("dn_busy_cycles", busy)
        self._current_cycle += count

    # ---- batched helpers used by the engines ---------------------------
    def delivery_cycles(self, unique_values: int, destinations: int) -> int:
        """Cycles to push one delivery through the GB read ports."""
        self._validate(unique_values, destinations)
        return math.ceil(self._bandwidth_slots(unique_values, destinations) / self.bandwidth)

    def record_delivery(self, unique_values: int, destinations: int) -> int:
        """Account a whole delivery at once; returns the cycles consumed."""
        cycles = self.delivery_cycles(unique_values, destinations)
        self.enqueue(unique_values, destinations)
        self.skip_cycles(cycles)
        return cycles

    def _validate(self, unique_values: int, destinations: int) -> None:
        if unique_values < 0 or destinations < 0:
            raise ValueError("delivery sizes must be non-negative")
        if destinations > 0 and unique_values == 0:
            raise ValueError("a delivery with destinations needs values")

    # ---- the same, for a sequence of deliveries held as columns ---------
    def delivery_cycles_of(
        self, unique_values: np.ndarray, destinations: np.ndarray
    ) -> np.ndarray:
        """:meth:`delivery_cycles` of every delivery of a sequence."""
        self._validate_columns(unique_values, destinations)
        slots = self._bandwidth_slots(unique_values, destinations)
        cycles: np.ndarray = -(-slots // self.bandwidth)
        return cycles

    def schedule_deliveries(
        self,
        unique_values: np.ndarray,
        destinations: np.ndarray,
        times: np.ndarray,
        cycles: np.ndarray,
    ) -> DeliverySchedule:
        """Cost a sequence of deliveries from the current queue onwards.

        Entry ``i`` stands for ``enqueue(unique_values[i], destinations[i],
        times[i])`` followed by ``skip_cycles(cycles[i])``. Nothing is
        written: :meth:`record_scheduled` accounts any run of consecutive
        entries. The queue carries over from one entry to the next (and
        in from what is pending now): ``pending' = max(0, pending + slots
        - cycles * bandwidth)`` is solved for every entry with a running
        minimum rather than stepped.
        """
        self._validate_columns(unique_values, destinations)
        if times.size and times.min() < 1:
            raise SimulationError(
                f"a delivery is queued at least once, got times={int(times.min())}"
            )
        if cycles.size and cycles.min() < 0:
            raise ValueError("cannot skip a negative number of cycles")
        levels = (
            [] if self.obs.fabric is None
            else self.fabric_level_traversals(unique_values, destinations)
        )
        # one preallocated table, written column by column
        costs = np.empty((len(times), 5 + len(levels)), dtype=np.int64)
        np.multiply(
            self._switch_traversals(unique_values, destinations), times,
            out=costs[:, 0],
        )
        np.multiply(
            self._wire_traversals(unique_values, destinations), times,
            out=costs[:, 1],
        )
        np.multiply(unique_values, times, out=costs[:, 2])
        costs[:, 4] = cycles
        for column, hops in enumerate(levels, 5):
            np.multiply(hops, times, out=costs[:, column])
        queued = self._bandwidth_slots(unique_values, destinations) * times
        # the queue after each entry's drain if it could run negative; it
        # cannot, so whatever deficit it has reached so far is forgiven
        pending = np.empty(len(times) + 1, dtype=np.int64)
        pending[0] = self._pending_slots
        owed = pending[1:]
        np.add.accumulate(queued - cycles * self.bandwidth, out=owed)
        owed += self._pending_slots
        deficit = np.minimum.accumulate(owed)
        owed -= np.minimum(deficit, 0, out=deficit)
        queued += pending[:-1]
        np.minimum(cycles, -(-queued // self.bandwidth), out=costs[:, 3])
        return DeliverySchedule(costs, pending)

    def record_scheduled(self, schedule: DeliverySchedule, lo: int, hi: int) -> None:
        """Account entries ``[lo, hi)`` of a schedule: counters, fabric
        levels, the pending queue and the clock end up exactly where the
        scalar calls they stand for would leave them. Runs are recorded
        in order, each from the queue the one before left."""
        if self._pending_slots != schedule.pending[lo]:
            raise SimulationError(
                f"delivery schedule entry {lo} expects {int(schedule.pending[lo])} "
                f"pending slots, the queue holds {self._pending_slots}"
            )
        switches, wires, elements, busy, cycles, *levels = (
            schedule.costs[lo:hi].sum(axis=0).tolist()
        )
        self._pending_slots = int(schedule.pending[hi])
        self.counters.add("dn_switch_traversals", switches)
        self.counters.add("dn_wire_traversals", wires)
        self.counters.add("dn_elements_sent", elements)
        self.counters.add("dn_busy_cycles", busy)
        self._current_cycle += cycles
        fabric = self.obs.fabric
        if fabric is not None:
            fabric.charge_levels(
                "dn", self.fabric_counter, levels, self._fabric_widths
            )

    def _validate_columns(
        self, unique_values: np.ndarray, destinations: np.ndarray
    ) -> None:
        if destinations is unique_values:
            # one value per destination: nothing can lack values
            if unique_values.size and unique_values.min() < 0:
                raise ValueError("delivery sizes must be non-negative")
            return
        if unique_values.size and min(unique_values.min(), destinations.min()) < 0:
            raise ValueError("delivery sizes must be non-negative")
        if ((destinations > 0) & (unique_values == 0)).any():
            raise ValueError("a delivery with destinations needs values")

    def reset(self) -> None:
        super().reset()
        self._pending_slots = 0


class TreeNetwork(DistributionNetwork):
    """MAERI-style replicated binary distribution trees.

    The physical fabric replicates a ``num_leaves``-leaf binary tree once
    per GB read port (``bandwidth`` trees). A multicast of one value to
    ``d`` destinations activates the switches along the covering subtree:
    ``depth`` levels down plus the extra branches that split towards each
    destination, i.e. about ``depth + (d - 1)`` switch hops.
    """

    def __init__(self, num_leaves: int, bandwidth: int, name: str = "dn-tree") -> None:
        super().__init__(name, num_leaves, bandwidth)
        self.depth = _log2_ceil(num_leaves)

    @property
    def pipeline_latency(self) -> int:
        # Single-cycle delivery per the paper: the whole tree traversal
        # completes within one clock once a read-port slot is granted.
        return 1

    @property
    def num_switches(self) -> int:
        """Switches in one tree replica (internal nodes of a binary tree)."""
        return self.num_leaves - 1

    def _bandwidth_slots(self, unique_values: Ints, destinations: Ints) -> Ints:
        return unique_values

    def _fanout(self, unique_values: Ints, destinations: Ints) -> Ints:
        return _at_least(destinations // _at_least(unique_values, 1), 1)

    def _switch_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        fanout = self._fanout(unique_values, destinations)
        hops: Ints = unique_values * (self.depth + fanout - 1)
        return hops

    def _wire_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        # One link per switch hop plus the final switch→MS links.
        hops: Ints = self._switch_traversals(unique_values, destinations) + destinations
        return hops

    def fabric_level_widths(self) -> List[int]:
        # Root-first tournament halving: [1, 2, 4, ...] for power-of-two
        # leaf counts; the widths always sum to num_leaves - 1 switches.
        from repro.observability.fabric import tournament_levels

        return list(reversed(tournament_levels(self.num_leaves)))

    def fabric_level_traversals(
        self, unique_values: Ints, destinations: Ints
    ) -> List[Ints]:
        # Each unique value crosses one switch per level; the multicast
        # replication hops all land in the leaf-adjacent level, where the
        # covering subtree splits towards the destinations.
        fanout = self._fanout(unique_values, destinations)
        levels = [unique_values] * self.depth
        levels[-1] = levels[-1] + unique_values * (fanout - 1)
        return levels


class BenesNetwork(DistributionNetwork):
    """SIGMA-style Benes topology: ``2*log2(N)+1`` levels of 2x2 switches.

    Non-blocking: any unicast/multicast pattern routes in a single pass.
    Every element traverses all levels, so the per-element switch cost is
    the level count (cheap switches, but more of them than a tree).
    """

    def __init__(self, num_leaves: int, bandwidth: int, name: str = "dn-benes") -> None:
        super().__init__(name, num_leaves, bandwidth)
        self.levels = 2 * _log2_ceil(num_leaves) + 1

    @property
    def pipeline_latency(self) -> int:
        return 1

    @property
    def num_switches(self) -> int:
        """2x2 switches in the fabric: N/2 per level."""
        return (self.num_leaves // 2) * self.levels

    def _bandwidth_slots(self, unique_values: Ints, destinations: Ints) -> Ints:
        return unique_values

    def _switch_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        # Multicast replication happens progressively across levels; charge
        # the dominant term: each *delivered copy* exits through the last
        # level, and each unique value walks all levels once.
        hops: Ints = unique_values * self.levels + _at_least(
            destinations - unique_values, 0
        )
        return hops

    def _wire_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        hops: Ints = self._switch_traversals(unique_values, destinations) + destinations
        return hops

    def fabric_level_widths(self) -> List[int]:
        return [self.num_leaves // 2] * self.levels

    def fabric_level_traversals(
        self, unique_values: Ints, destinations: Ints
    ) -> List[Ints]:
        # Every unique value walks all levels; the multicast copies exit
        # through the final level towards their destinations.
        levels = [unique_values] * self.levels
        levels[-1] = levels[-1] + _at_least(destinations - unique_values, 0)
        return levels


class PointToPointNetwork(DistributionNetwork):
    """Unicast-only operand links for systolic arrays (TPU).

    No multicast: a value reaching ``d`` processing elements consumes ``d``
    bandwidth slots (in a real systolic array reuse happens *spatially* by
    neighbour forwarding inside the PE grid, which the systolic engine
    models; the DN itself only feeds array edges).
    """

    #: no switches to decompose — the single link stage anchors wires
    fabric_counter = "dn_wire_traversals"

    def __init__(self, num_leaves: int, bandwidth: int, name: str = "dn-pop") -> None:
        super().__init__(name, num_leaves, bandwidth)

    @property
    def pipeline_latency(self) -> int:
        return 1

    @property
    def num_switches(self) -> int:
        return 0

    def _bandwidth_slots(self, unique_values: Ints, destinations: Ints) -> Ints:
        slots: Ints = unique_values + _at_least(destinations - unique_values, 0)
        return slots

    def _switch_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        none: Ints = unique_values * 0
        return none

    def _wire_traversals(self, unique_values: Ints, destinations: Ints) -> Ints:
        return self._bandwidth_slots(unique_values, destinations)

    def fabric_level_widths(self) -> List[int]:
        return [self.num_leaves]

    def fabric_level_traversals(
        self, unique_values: Ints, destinations: Ints
    ) -> List[Ints]:
        return [self._bandwidth_slots(unique_values, destinations)]


def build_distribution_network(kind: DistributionKind, num_leaves: int, bandwidth: int) -> DistributionNetwork:
    """Factory keyed on :class:`repro.config.DistributionKind`."""
    from repro.config.hardware import DistributionKind

    if kind is DistributionKind.TREE:
        return TreeNetwork(num_leaves, bandwidth)
    if kind is DistributionKind.BENES:
        return BenesNetwork(num_leaves, bandwidth)
    if kind is DistributionKind.POINT_TO_POINT:
        return PointToPointNetwork(num_leaves, bandwidth)
    raise ConfigurationError(f"unknown distribution network kind: {kind!r}")
