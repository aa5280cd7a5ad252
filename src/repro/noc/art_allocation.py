"""ART virtual reduction-tree allocation.

MAERI's Augmented Reduction Tree claims "flexible support of multiple and
non-blocking virtual reduction trees over a single physical tree hardware
substrate". This module makes that claim executable: given the cluster
sizes the Mapper assigns to contiguous multiplier ranges, it constructs
each cluster's virtual tree over the physical binary tree —

1. decompose the cluster's leaf range into maximal *aligned* power-of-two
   blocks (each reduces conflict-free inside its own physical subtree);
2. chain the block partial sums left-to-right through the augmented
   horizontal links, one 3:1 adder merge per additional block —

and verifies the non-blocking property structurally: no physical adder is
claimed by two clusters, and the block count per cluster never exceeds
the ``2·log2(N)`` bound the decomposition guarantees.

Three functions, one claim
--------------------------

:func:`allocate_virtual_trees` *constructs* the embedding — every
physical adder of every virtual tree, as explicit ``(level, index)``
sets — and checks disjointness node by node. It is the constructor for
mapping studies and the oracle of the equivalence tests.

:func:`verify_non_blocking` *proves* the same property from the block
table alone, in O(#blocks), and is what the reduction networks run on
every reconfiguration. The lemma it rests on: an aligned power-of-two
block ``[s, s + 2^k)`` with ``s`` a multiple of ``2^k`` is exactly one
subtree of the physical binary tree, and two subtrees of one tree are
either nested or leaf-disjoint — so two aligned blocks share a physical
adder *iff* their leaf ranges overlap. Every block being aligned to its
size and starting at or after the previous block's end therefore rules
out a doubly-claimed adder without enumerating one.

:func:`verify_non_blocking_rounds` is that proof for a whole table of
reconfigurations at once — every round of a sparse GEMM — with the
clusters as int64 columns. The greedy decomposition takes one block off
every cluster per array step, so the ``2·log2(N)`` block bound is also
the bound on the number of steps; the block table it leaves (one row
per step, one column per cluster) then goes through the same three
checks in a handful of array operations. It only decides: a round it
rejects is handed to :func:`verify_non_blocking`, which names the
cluster and raises, so the error types and messages have one home.

The allocation also yields each virtual tree's latency (deepest block
plus the horizontal merge chain); the calibrated engine keeps its simpler
``log2(size)`` figure (virtual trees pipeline, so the difference only
moves the one-time drain), but the analysis is exposed for mapping
studies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MappingError


@dataclass(frozen=True)
class VirtualTree:
    """One cluster's embedding in the physical ART substrate."""

    cluster: int
    leaf_start: int
    leaf_count: int
    #: maximal aligned power-of-two blocks as (start_leaf, size)
    blocks: Tuple[Tuple[int, int], ...]
    #: physical adder nodes used, as (level, index) with leaves at level 0
    adder_nodes: FrozenSet[Tuple[int, int]]
    #: horizontal-link merges chaining the block partials
    horizontal_merges: int

    @property
    def latency(self) -> int:
        """Cycles from products entering to the cluster psum emerging."""
        deepest = max((int(math.log2(size)) for _s, size in self.blocks),
                      default=0)
        return deepest + self.horizontal_merges


def _aligned_blocks(start: int, count: int) -> List[Tuple[int, int]]:
    """Greedy maximal aligned power-of-two decomposition of a range."""
    blocks: List[Tuple[int, int]] = []
    position = start
    remaining = count
    while remaining:
        # largest power of two dividing `position` (unbounded at zero),
        # capped by the largest power of two fitting the remainder
        by_alignment = position & -position if position else remaining
        by_size = 1 << (remaining.bit_length() - 1)
        size = min(by_alignment, by_size)
        blocks.append((position, size))
        position += size
        remaining -= size
    return blocks


def _subtree_adders(start: int, size: int) -> FrozenSet[Tuple[int, int]]:
    """Internal adder nodes of the aligned subtree over [start, start+size)."""
    nodes = set()
    level = 1
    width = size // 2
    while width >= 1:
        first = start >> level
        nodes.update((level, first + i) for i in range(width))
        level += 1
        width //= 2
    return frozenset(nodes)


def _checked_sizes(cluster_sizes: Sequence[int], num_leaves: int) -> List[int]:
    """The cluster sizes as ints, once substrate and capacity are checked."""
    if num_leaves < 2 or num_leaves & (num_leaves - 1):
        raise ConfigurationError(
            f"the ART substrate needs a power-of-two leaf count, got {num_leaves}"
        )
    sizes = [int(size) for size in cluster_sizes]
    if any(size < 1 for size in sizes):
        raise MappingError("cluster sizes must be positive")
    if sum(sizes) > num_leaves:
        raise MappingError(
            f"clusters need {sum(sizes)} leaves but the substrate has {num_leaves}"
        )
    return sizes


def _block_bound(num_leaves: int) -> int:
    return 2 * max(1, int(math.log2(num_leaves)))


def verify_non_blocking(cluster_sizes: Sequence[int], num_leaves: int) -> None:
    """Prove contiguous clusters embed as non-blocking virtual trees.

    Accepts and rejects exactly what :func:`allocate_virtual_trees` does,
    with the same exception types, without materialising an adder node
    (see the module docstring for the lemma).
    """
    sizes = _checked_sizes(cluster_sizes, num_leaves)
    bound = _block_bound(num_leaves)
    cursor = 0
    for cluster, size in enumerate(sizes):
        cursor = check_cluster_blocks(
            cluster, size, _aligned_blocks(cursor, size), bound, cursor
        )


@functools.lru_cache(maxsize=16)
def _block_size_tables(num_leaves: int) -> Tuple[np.ndarray, np.ndarray]:
    """``_aligned_blocks``' two caps, tabulated over ``[0, num_leaves]``:
    the largest power of two dividing a position (``num_leaves`` at zero)
    and the largest power of two fitting a remainder (zero at zero)."""
    span = np.arange(num_leaves + 1)
    by_alignment = (span | num_leaves) & -(span | num_leaves)
    by_size = (1 << np.frexp(span)[1].astype(np.int64)) >> 1
    for table in (by_alignment, by_size):
        table.setflags(write=False)
    return by_alignment, by_size


def verify_non_blocking_rounds(
    sizes: np.ndarray, offsets: np.ndarray, num_leaves: int
) -> None:
    """:func:`verify_non_blocking` for every round of a table at once.

    Round ``i`` holds the clusters ``sizes[offsets[i]:offsets[i + 1]]``.
    Accepts exactly the tables whose every round the scalar proof
    accepts; otherwise raises what the scalar proof raises for the first
    round it rejects.
    """
    rounds = len(offsets) - 1
    if rounds < 1:
        return
    _checked_sizes((), num_leaves)  # the substrate, as every round would
    # each cluster's first leaf, counted from the start of its own round
    ends = np.cumsum(sizes)
    round_of = np.repeat(np.arange(rounds), np.diff(offsets))
    start = ends - sizes - np.concatenate(([0], ends))[offsets[:-1]][round_of]
    rejected = (sizes < 1) | (start < 0) | (start + sizes > num_leaves)

    # the block table: step k takes block k off every unfinished cluster
    # (row 0 is an empty block at the cluster's first leaf, so the table
    # has a row even when no cluster needs a step)
    by_alignment, by_size = _block_size_tables(num_leaves)
    position = np.where(rejected, 0, start)
    remaining = np.where(rejected, 0, sizes)
    block_starts, block_sizes = [position], [np.zeros_like(position)]
    for _ in range(_block_bound(num_leaves)):
        if not remaining.any():
            break
        size = np.minimum(by_alignment[position], by_size[remaining])
        block_starts.append(position)
        block_sizes.append(size)
        position = position + size
        remaining = remaining - size
    # check 1, the 2*log2(N) bound: no cluster needs a further step
    rejected |= remaining > 0
    # check 2: every block is one physical subtree (a power of two,
    # aligned to its size) and starts at or after the end of the block
    # before it, the previous cluster's last block included
    first, length = np.stack(block_starts), np.stack(block_sizes)
    mask = length - (length > 0)
    rejected |= ((length & mask) | (first & mask)).any(axis=0)
    rejected |= (first[1:] < first[:-1] + length[:-1]).any(axis=0)
    covered = length.sum(axis=0)
    same_round = round_of[1:] == round_of[:-1]
    rejected[1:] |= same_round & (start[1:] < (start + covered)[:-1])
    # check 3: the blocks cover the cluster's leaves
    rejected |= covered != sizes

    if rejected.any():
        bad = int(round_of[np.flatnonzero(rejected)[0]])
        verify_non_blocking(sizes[offsets[bad]:offsets[bad + 1]].tolist(), num_leaves)
        raise MappingError(
            f"round {bad}: the array-form non-blocking proof rejects "
            "clusters the per-cluster proof accepts"
        )


def check_cluster_blocks(
    cluster: int,
    leaf_count: int,
    blocks: Sequence[Tuple[int, int]],
    bound: int,
    floor: int = 0,
) -> int:
    """Check one cluster's block table; returns the end of its last block.

    ``floor`` is the end of the previous cluster's last block. The three
    checks are the structural non-blocking proof: the ``2·log2(N)`` block
    bound, the blocks covering the cluster's leaves, and every block
    being one physical subtree (aligned to its power-of-two size) that
    starts at or after the previous block's end.
    """
    if len(blocks) > bound:
        raise MappingError(
            f"cluster {cluster} decomposed into {len(blocks)} "
            f"blocks, above the 2*log2(N) = {bound} bound"
        )
    covered = 0
    for start, size in blocks:
        if size < 1 or size & (size - 1) or start & (size - 1) or start < floor:
            raise MappingError(
                f"cluster {cluster}: block ({start}, {size}) is misaligned "
                f"or overlaps the block ending at leaf {floor}, so a "
                "physical adder would be claimed twice: not non-blocking"
            )
        floor = start + size
        covered += size
    if covered != leaf_count:
        raise MappingError(
            f"cluster {cluster}: blocks do not cover its leaves"
        )
    return floor


def allocate_virtual_trees(
    cluster_sizes: Sequence[int], num_leaves: int
) -> List[VirtualTree]:
    """Embed contiguous clusters into a ``num_leaves``-leaf ART substrate."""
    sizes = _checked_sizes(cluster_sizes, num_leaves)

    trees: List[VirtualTree] = []
    cursor = 0
    for cluster, size in enumerate(sizes):
        blocks = _aligned_blocks(cursor, size)
        adders: set = set()
        for start, block_size in blocks:
            adders |= _subtree_adders(start, block_size)
        trees.append(
            VirtualTree(
                cluster=cluster,
                leaf_start=cursor,
                leaf_count=size,
                blocks=tuple(blocks),
                adder_nodes=frozenset(adders),
                horizontal_merges=max(0, len(blocks) - 1),
            )
        )
        cursor += size

    _assert_non_blocking(trees, num_leaves)
    return trees


def _assert_non_blocking(trees: Sequence[VirtualTree], num_leaves: int) -> None:
    """Structural verification of the paper's non-blocking claim."""
    claimed: dict = {}
    bound = _block_bound(num_leaves)
    for tree in trees:
        if len(tree.blocks) > bound:
            raise MappingError(
                f"cluster {tree.cluster} decomposed into {len(tree.blocks)} "
                f"blocks, above the 2*log2(N) = {bound} bound"
            )
        if sum(size for _s, size in tree.blocks) != tree.leaf_count:
            raise MappingError(
                f"cluster {tree.cluster}: blocks do not cover its leaves"
            )
        for node in tree.adder_nodes:
            if node in claimed:
                raise MappingError(
                    f"physical adder {node} claimed by clusters "
                    f"{claimed[node]} and {tree.cluster}: not non-blocking"
                )
            claimed[node] = tree.cluster


def reduce_with_allocation(
    trees: Sequence[VirtualTree], leaf_values: Sequence[float]
) -> List[float]:
    """Functionally reduce leaf values through the allocated virtual trees.

    Each block sums inside its own subtree; block partials then merge via
    the horizontal chain. Returns one psum per cluster — asserted equal to
    the plain per-cluster sums in the tests, which is the end-to-end
    correctness of the embedding.
    """
    results = []
    for tree in trees:
        partials = [
            sum(leaf_values[start : start + size]) for start, size in tree.blocks
        ]
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial  # one 3:1-adder horizontal merge each
        results.append(total)
    return results
