"""Distribution networks: bandwidth, multicast and activity accounting."""

import pytest

from repro.config.hardware import DistributionKind
from repro.errors import ConfigurationError, SimulationError
from repro.noc.distribution import (
    BenesNetwork,
    PointToPointNetwork,
    TreeNetwork,
    build_distribution_network,
)
from repro.observability import Observability


class TestTreeNetwork:
    def test_multicast_counts_once_per_value(self):
        tn = TreeNetwork(num_leaves=16, bandwidth=4)
        # one value to 8 destinations consumes one bandwidth slot
        assert tn.delivery_cycles(1, 8) == 1
        # 8 unique values need 2 cycles at bandwidth 4
        assert tn.delivery_cycles(8, 8) == 2

    def test_supports_multicast(self):
        assert TreeNetwork(16, 4).supports_multicast

    def test_depth(self):
        assert TreeNetwork(16, 4).depth == 4
        assert TreeNetwork(256, 64).depth == 8

    def test_num_switches(self):
        assert TreeNetwork(16, 4).num_switches == 15

    def test_activity_counters(self):
        tn = TreeNetwork(16, 4)
        tn.record_delivery(2, 8)
        assert tn.counters["dn_elements_sent"] == 2
        assert tn.counters["dn_wire_traversals"] > 0
        assert tn.counters["dn_switch_traversals"] > 0

    def test_queue_draining(self):
        tn = TreeNetwork(16, 4)
        tn.enqueue(10, 10)
        assert tn.pending_slots == 10
        assert tn.delivery_cycles(10, 10) == 3
        tn.skip_cycles(1)
        assert tn.pending_slots == 6
        tn.skip_cycles(2)
        assert tn.pending_slots == 0

    def test_busy_cycles_counted(self):
        tn = TreeNetwork(16, 4)
        tn.enqueue(8, 8)
        tn.skip_cycles(5)
        assert tn.counters["dn_busy_cycles"] == 2

    def test_single_cycle_pipeline(self):
        assert TreeNetwork(16, 4).pipeline_latency == 1


class TestBenesNetwork:
    def test_level_count_matches_paper(self):
        # 2 * log2(N) + 1 levels of 2x2 switches
        assert BenesNetwork(128, 64).levels == 15
        assert BenesNetwork(16, 8).levels == 9

    def test_multicast(self):
        bn = BenesNetwork(16, 8)
        assert bn.delivery_cycles(1, 16) == 1
        assert bn.supports_multicast

    def test_switch_count(self):
        assert BenesNetwork(16, 8).num_switches == 8 * 9

    def test_per_element_cost_exceeds_tree(self):
        bn = BenesNetwork(64, 32)
        tn = TreeNetwork(64, 32)
        bn.record_delivery(8, 8)
        tn.record_delivery(8, 8)
        assert (
            bn.counters["dn_switch_traversals"]
            > tn.counters["dn_switch_traversals"]
        )


class TestPointToPoint:
    def test_no_multicast(self):
        pop = PointToPointNetwork(16, 16)
        assert not pop.supports_multicast
        # one value to 8 destinations costs 8 slots
        assert pop.delivery_cycles(1, 8) == 1  # 8 slots / bw 16
        assert pop.delivery_cycles(1, 32) == 2

    def test_no_switches(self):
        pop = PointToPointNetwork(16, 16)
        assert pop.num_switches == 0
        pop.record_delivery(4, 4)
        assert pop.counters["dn_switch_traversals"] == 0
        assert pop.counters["dn_wire_traversals"] == 4


class TestCommon:
    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            TreeNetwork(16, 0)
        with pytest.raises(ConfigurationError):
            TreeNetwork(16, 32)

    def test_too_few_leaves(self):
        with pytest.raises(ConfigurationError):
            TreeNetwork(1, 1)

    def test_invalid_delivery(self):
        tn = TreeNetwork(16, 4)
        with pytest.raises(ValueError):
            tn.enqueue(-1, 4)
        with pytest.raises(ValueError):
            tn.enqueue(0, 4)

    def test_reset(self):
        tn = TreeNetwork(16, 4)
        tn.record_delivery(8, 8)
        tn.reset()
        assert tn.pending_slots == 0
        assert tn.current_cycle == 0
        assert len(tn.counters) == 0

    @pytest.mark.parametrize(
        "kind, cls",
        [
            (DistributionKind.TREE, TreeNetwork),
            (DistributionKind.BENES, BenesNetwork),
            (DistributionKind.POINT_TO_POINT, PointToPointNetwork),
        ],
    )
    def test_factory(self, kind, cls):
        assert isinstance(build_distribution_network(kind, 16, 4), cls)


class TestRepeatedEnqueue:
    """``enqueue(u, d, times=n)`` is ``n`` single enqueues, booked once."""

    @staticmethod
    def _network(cls):
        dn = cls(16, 4)
        dn.obs = Observability.create(fabric=True)
        return dn

    @staticmethod
    def _state(dn):
        fabric = dn.obs.fabric.finalize(dn.counters.as_dict(), 0)
        return dn.counters.as_dict(), dn.pending_slots, fabric["tiers"]

    @pytest.mark.parametrize(
        "cls", [TreeNetwork, BenesNetwork, PointToPointNetwork]
    )
    @pytest.mark.parametrize("unique, destinations", [(1, 8), (3, 12), (4, 4)])
    @pytest.mark.parametrize("times", [1, 2, 7])
    def test_equals_single_enqueues(self, cls, unique, destinations, times):
        batched, looped = self._network(cls), self._network(cls)
        batched.enqueue(unique, destinations, times=times)
        for _ in range(times):
            looped.enqueue(unique, destinations)
        assert self._state(batched) == self._state(looped)
        assert batched.counters["dn_elements_sent"] == unique * times

    @pytest.mark.parametrize(
        "cls", [TreeNetwork, BenesNetwork, PointToPointNetwork]
    )
    @pytest.mark.parametrize("times", [0, -1])
    def test_rejects_fewer_than_one_before_any_counter_moves(self, cls, times):
        dn = self._network(cls)
        with pytest.raises(SimulationError, match=f"times={times}"):
            dn.enqueue(2, 8, times=times)
        assert self._state(dn) == ({}, 0, {})
