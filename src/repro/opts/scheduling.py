"""Static filter scheduling for sparse accelerators (use case 3).

With unstructured sparsity, the *effective* size of each filter (its
nonzero count) varies widely, so the order in which filters are issued to
the fabric determines how many fit per round and therefore the multiplier
utilization (paper Fig. 8). This module provides the three policies of
Section VI-C as :data:`~repro.memory.sparse_controller.RoundBuilder`
implementations:

- **NS** (No Scheduling) — filters in their natural order (the sparse
  controller's default packing).
- **RDM** (Random) — a seeded random permutation; the paper shows this
  does not help, because random order does not improve packing.
- **LFF** (Largest Filter First) — at every round, map the largest
  still-unmapped filter that fits, then keep adding the largest remaining
  filters that fit until the fabric is full (first-fit decreasing).

These run as *front-end* extensions: a prior-simulation pass reorders the
filters, and a final reordering restores output order (output identity is
preserved because each filter's dot products are independent — the
controller validates full coverage).

A ``RoundBuilder`` must be a pure function of ``(row_nnz, capacity)``, as
all three policies are (RDM's shuffle is a function of its bound seed):
the sparse controller schedules a stationary operand once per (nonzero
structure, fabric, builder) and reuses the result, recognising a builder
by the callable object itself. ``largest_filter_first_rounds`` is one
object; ``policy_round_builder(RDM, seed)`` returns a new closure per
call, which is correct but never reused — keep the callable across runs
if its schedules should be.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

import numpy as np

from repro.memory.sparse_controller import (
    RowChunk,
    natural_order_rounds,
    pack_rows_in_order,
)


def random_rounds(
    row_nnz: np.ndarray, capacity: int, seed: int = 0
) -> List[List[RowChunk]]:
    """The RDM policy: shuffle the filters, then pack in that order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(row_nnz))
    return pack_rows_in_order(row_nnz, capacity, order)


def largest_filter_first_rounds(
    row_nnz: np.ndarray, capacity: int
) -> List[List[RowChunk]]:
    """The LFF policy: first-fit decreasing over the effective sizes.

    Every round starts with the largest remaining filter and greedily adds
    the largest remaining filters that still fit, maximizing multiplier
    occupancy per round. Filters wider than the whole fabric fold across
    dedicated rounds first (they cannot share the fabric anyway).
    """
    sizes = [int(v) for v in row_nnz]
    remaining = sorted(
        (row for row in range(len(sizes)) if sizes[row] > 0),
        key=lambda row: (-sizes[row], row),
    )
    rounds: List[List[RowChunk]] = []

    oversized = [row for row in remaining if sizes[row] > capacity]
    remainders: List[RowChunk] = []
    for row in oversized:
        offset, nnz = 0, sizes[row]
        while nnz - offset > capacity:
            rounds.append([RowChunk(row, offset, capacity, False)])
            offset += capacity
        remainders.append(RowChunk(row, offset, nnz - offset, True))
    remaining = [row for row in remaining if sizes[row] <= capacity]

    # remainder chunks behave like filters of their own size: largest first
    remainders.sort(key=lambda chunk: -chunk.length)
    while remainders:
        free = capacity
        chosen = []
        rest = []
        for chunk in remainders:
            if chunk.length <= free:
                chosen.append(chunk)
                free -= chunk.length
            else:
                rest.append(chunk)
        survivors2: List[int] = []
        for row in remaining:
            if sizes[row] <= free:
                chosen.append(RowChunk(row, 0, sizes[row], True))
                free -= sizes[row]
            else:
                survivors2.append(row)
        rounds.append(chosen)
        remainders = rest
        remaining = survivors2

    while remaining:
        free = capacity
        chosen: List[RowChunk] = []
        survivors: List[int] = []
        for row in remaining:
            if sizes[row] <= free:
                chosen.append(RowChunk(row, 0, sizes[row], True))
                free -= sizes[row]
            else:
                survivors.append(row)
        rounds.append(chosen)
        remaining = survivors
    return rounds


class SchedulingPolicy(enum.Enum):
    """The three policies evaluated in Fig. 9."""

    NS = "no-scheduling"
    RDM = "random"
    LFF = "largest-filter-first"


def policy_round_builder(
    policy: SchedulingPolicy, seed: int = 0
) -> Optional[Callable]:
    """A :data:`RoundBuilder` for the requested policy.

    NS returns ``None`` — the sparse controller's built-in default —
    so call sites read exactly like the paper's baseline.
    """
    if policy is SchedulingPolicy.NS:
        return None
    if policy is SchedulingPolicy.RDM:
        return lambda row_nnz, capacity: random_rounds(row_nnz, capacity, seed)
    if policy is SchedulingPolicy.LFF:
        return largest_filter_first_rounds
    raise ValueError(f"unknown policy {policy!r}")


__all__ = [
    "SchedulingPolicy",
    "largest_filter_first_rounds",
    "natural_order_rounds",
    "policy_round_builder",
    "random_rounds",
]
