"""On-chip network building blocks (paper Fig. 3b).

STONNE organizes every modeled accelerator as three network tiers:

- **Distribution Networks (DNs)** carry operands from the Global Buffer to
  the multipliers: Tree Network (TN, MAERI), Benes Network (BN, SIGMA) and
  Point-to-Point Network (PoPN, systolic arrays).
- **Multiplier Networks (MNs)** hold the Multiplier Switches (MSs):
  Linear MN (LMN, with neighbour forwarding links) and Disabled MN (DMN).
- **Reduction Networks (RNs)** accumulate cluster partial sums:
  Reduction Tree (RT), Augmented Reduction Tree (ART / ART+ACC),
  Forwarding Adder Network (FAN) and Linear Reduction Network (LRN).

Each block is a :class:`~repro.noc.base.ClockedComponent`: it prices its
work in closed form, advances its clock by whole phases and keeps activity
counters the output module converts into energy (Section III, Output
Module). The one-clock-at-a-time loop those closed forms equal is a test
oracle (``tests/oracles/clock.py``), not part of the package.
"""

from repro.noc.art_allocation import (
    VirtualTree,
    allocate_virtual_trees,
    reduce_with_allocation,
)
from repro.noc.base import ClockedComponent, CounterSet
from repro.noc.benes_routing import BenesRouting, apply_routing, route_permutation
from repro.noc.distribution import (
    BenesNetwork,
    DistributionNetwork,
    PointToPointNetwork,
    TreeNetwork,
    build_distribution_network,
)
from repro.noc.multiplier import MultiplierNetwork, build_multiplier_network
from repro.noc.reduction import (
    AugmentedReductionTree,
    ForwardingAdderNetwork,
    LinearReductionNetwork,
    ReductionNetwork,
    ReductionTree,
    build_reduction_network,
)

__all__ = [
    "AugmentedReductionTree",
    "BenesRouting",
    "VirtualTree",
    "allocate_virtual_trees",
    "apply_routing",
    "reduce_with_allocation",
    "route_permutation",
    "BenesNetwork",
    "ClockedComponent",
    "CounterSet",
    "DistributionNetwork",
    "ForwardingAdderNetwork",
    "LinearReductionNetwork",
    "MultiplierNetwork",
    "PointToPointNetwork",
    "ReductionNetwork",
    "ReductionTree",
    "TreeNetwork",
    "build_distribution_network",
    "build_multiplier_network",
    "build_reduction_network",
]
