"""A negative skip on the distribution network is a typed error.

``DistributionNetwork.skip_cycles(-1)`` raised a bare ``ValueError``; it
is the only clock advance left on a component, and now raises
``SimulationError`` before the queue, a counter or the clock moves.
"""

import pytest

from repro.errors import SimulationError
from repro.noc.distribution import BenesNetwork, PointToPointNetwork, TreeNetwork


@pytest.mark.parametrize("cls", [TreeNetwork, BenesNetwork, PointToPointNetwork])
@pytest.mark.parametrize("count", [-1, -7])
def test_negative_skip_is_a_simulation_error(cls, count):
    dn = cls(num_leaves=16, bandwidth=4)
    dn.enqueue(6, 6)
    before = dn.counters.as_dict()
    with pytest.raises(SimulationError, match=f"count={count}"):
        dn.skip_cycles(count)
    assert dn.pending_slots == 6
    assert dn.counters.as_dict() == before
    assert dn.current_cycle == 0


def test_zero_skip_is_allowed():
    dn = TreeNetwork(16, 4)
    dn.enqueue(6, 6)
    dn.skip_cycles(0)
    assert dn.pending_slots == 6 and dn.current_cycle == 0
