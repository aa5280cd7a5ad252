"""Differential suite: the O(#blocks) ART proof vs the explicit embedding.

The reduction networks prove the non-blocking property on every
reconfiguration with :func:`verify_non_blocking`, which reads only the
aligned-block table, and on a whole table of reconfigurations (the
rounds of a sparse GEMM) with :func:`verify_non_blocking_rounds`, the
same proof over int64 columns. :func:`allocate_virtual_trees` constructs
every physical adder node and checks disjointness node by node; it is
off the timing path and serves here as the oracle: all three must accept
and reject the same inputs with the same exception type.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import maeri_like, sigma_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError, MappingError, StonneError
from repro.noc.art_allocation import (
    _aligned_blocks,
    _subtree_adders,
    allocate_virtual_trees,
    check_cluster_blocks,
    verify_non_blocking,
    verify_non_blocking_rounds,
)
from repro.noc.base import run_offsets


def _outcome(function, sizes, num_leaves):
    """``None`` when accepted, else the exception type raised."""
    try:
        function(sizes, num_leaves)
    except StonneError as error:
        return type(error)
    return None


SUBSTRATES = [2, 4, 8, 16, 64, 256, 1, 0, 12, 48]


def _cluster_sizes(num_leaves):
    return st.lists(
        st.integers(-1, max(2, num_leaves // 2)), min_size=0, max_size=12,
    )


@st.composite
def cluster_inputs(draw):
    """Mostly valid partitions, with bad substrates, non-positive sizes
    and over-capacity totals mixed in."""
    num_leaves = draw(st.sampled_from(SUBSTRATES))
    return draw(_cluster_sizes(num_leaves)), num_leaves


@st.composite
def round_tables(draw):
    """Several such partitions over one substrate — the rounds of a
    GEMM — so a bad round can sit anywhere in the table; mostly valid
    rounds, or nearly every table would be rejected at its first."""
    num_leaves = draw(st.sampled_from(SUBSTRATES))
    valid = st.lists(
        st.integers(1, max(1, num_leaves // 4)), min_size=0, max_size=4,
    )
    rounds = draw(st.lists(
        st.one_of(valid, valid, valid, _cluster_sizes(num_leaves)),
        min_size=0, max_size=6,
    ))
    return rounds, num_leaves


@given(cluster_inputs())
@settings(max_examples=300, deadline=None)
def test_verifier_and_constructor_agree(case):
    sizes, num_leaves = case
    proved = _outcome(verify_non_blocking, sizes, num_leaves)
    constructed = _outcome(allocate_virtual_trees, sizes, num_leaves)
    assert proved is constructed


def _table_outcome(rounds, num_leaves):
    sizes = np.array([s for r in rounds for s in r], dtype=np.int64)
    offsets = run_offsets(np.array([len(r) for r in rounds], dtype=np.int64))
    try:
        verify_non_blocking_rounds(sizes, offsets, num_leaves)
    except StonneError as error:
        return type(error)
    return None


def _round_by_round_outcome(function, rounds, num_leaves):
    for sizes in rounds:
        outcome = _outcome(function, sizes, num_leaves)
        if outcome is not None:
            return outcome
    return None


@given(round_tables())
@settings(max_examples=400, deadline=None)
def test_array_form_agrees_round_by_round(case):
    """The table proof rejects iff some round is rejected, with the type
    the first rejected round raises (a table without rounds configures
    nothing, so not even a bad substrate is looked at)."""
    rounds, num_leaves = case
    proved = _table_outcome(rounds, num_leaves)
    assert proved is _round_by_round_outcome(
        verify_non_blocking, rounds, num_leaves
    )
    assert proved is _round_by_round_outcome(
        allocate_virtual_trees, rounds, num_leaves
    )


def test_array_form_names_the_first_bad_round_like_the_scalar_proof():
    sizes = np.array([3, 5, 4, 4, 9, 2], dtype=np.int64)
    offsets = np.array([0, 2, 4, 6], dtype=np.int64)
    with pytest.raises(MappingError) as table:
        verify_non_blocking_rounds(sizes, offsets, 8)
    with pytest.raises(MappingError) as scalar:
        verify_non_blocking([9, 2], 8)
    assert str(table.value) == str(scalar.value)
    verify_non_blocking_rounds(sizes[:4], offsets[:3], 8)
    verify_non_blocking_rounds(sizes[:0], offsets[:1], 12)  # no round, no check


@st.composite
def valid_partitions(draw):
    num_leaves = draw(st.sampled_from([4, 16, 64, 256]))
    sizes, total = [], 0
    while total < num_leaves and (not sizes or draw(st.booleans())):
        size = draw(st.integers(1, num_leaves - total))
        sizes.append(size)
        total += size
    return sizes, num_leaves


@given(valid_partitions())
@settings(max_examples=200, deadline=None)
def test_accepted_partitions_claim_disjoint_adders(case):
    """What the verifier accepts, the explicit construction confirms:
    the clusters' physical adder sets are pairwise disjoint."""
    sizes, num_leaves = case
    verify_non_blocking(sizes, num_leaves)
    trees = allocate_virtual_trees(sizes, num_leaves)
    claimed = set()
    for tree in trees:
        assert not claimed & tree.adder_nodes
        claimed |= tree.adder_nodes
    assert len(claimed) == sum(len(tree.adder_nodes) for tree in trees)


@given(st.integers(1, 7), st.integers(0, 63), st.integers(1, 7), st.integers(0, 63))
@settings(max_examples=300, deadline=None)
def test_aligned_blocks_share_an_adder_iff_leaf_ranges_overlap(k1, i1, k2, i2):
    """The lemma the verifier rests on, checked on the explicit nodes."""
    size1, size2 = 1 << k1, 1 << k2
    start1, start2 = i1 * size1, i2 * size2
    share = bool(_subtree_adders(start1, size1) & _subtree_adders(start2, size2))
    overlap = start1 < start2 + size2 and start2 < start1 + size1
    assert share is overlap


@pytest.mark.parametrize(
    "sizes,num_leaves,error",
    [
        ([3], 12, ConfigurationError),    # substrate not a power of two
        ([1], 1, ConfigurationError),     # substrate too small
        ([0, 4], 8, MappingError),        # non-positive cluster
        ([9], 8, MappingError),           # over capacity
        ([4, 4, 1], 8, MappingError),
    ],
)
def test_every_input_error_is_kept(sizes, num_leaves, error):
    with pytest.raises(error):
        verify_non_blocking(sizes, num_leaves)
    with pytest.raises(error):
        allocate_virtual_trees(sizes, num_leaves)


class TestBlockChecker:
    """The block check is real: hand-built bad tables are rejected."""

    def test_generated_tables_pass(self):
        end = check_cluster_blocks(0, 5, _aligned_blocks(0, 5), bound=6)
        assert end == 5
        assert check_cluster_blocks(1, 7, _aligned_blocks(5, 7), 6, floor=5) == 12

    def test_misaligned_block_rejected(self):
        # a 4-leaf block at leaf 2 straddles two physical subtrees
        with pytest.raises(MappingError, match="misaligned"):
            check_cluster_blocks(0, 4, [(2, 4)], bound=6)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(MappingError, match="misaligned"):
            check_cluster_blocks(0, 3, [(0, 3)], bound=6)

    def test_block_overlapping_previous_cluster_rejected(self):
        # the previous cluster ended at leaf 6; (4, 4) re-claims the
        # adder over leaves 4-5
        with pytest.raises(MappingError, match="not non-blocking"):
            check_cluster_blocks(1, 4, [(4, 4)], bound=6, floor=6)

    def test_overlap_inside_one_cluster_rejected(self):
        with pytest.raises(MappingError, match="overlaps"):
            check_cluster_blocks(0, 6, [(0, 4), (2, 2)], bound=6)

    def test_blocks_must_cover_the_cluster(self):
        with pytest.raises(MappingError, match="do not cover"):
            check_cluster_blocks(0, 7, [(0, 4), (4, 2)], bound=6)

    def test_block_bound_enforced(self):
        blocks = [(i, 1) for i in range(5)]
        with pytest.raises(MappingError, match="bound"):
            check_cluster_blocks(0, 5, blocks, bound=4)


@pytest.mark.parametrize(
    "config", [maeri_like(num_ms=16, bandwidth=8), sigma_like(num_ms=16, bandwidth=8)],
    ids=["art", "fan"],
)
def test_reduction_networks_prove_without_constructing(config, monkeypatch):
    """``configure_clusters`` runs the verifier, never the constructor."""
    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("explicit embedding built on the timing path")

    monkeypatch.setattr("repro.noc.art_allocation.allocate_virtual_trees", boom)
    monkeypatch.setattr("repro.noc.art_allocation._subtree_adders", boom)
    rn = Accelerator(config).rn
    rn.configure_clusters([3, 5, 1, 7])
    assert rn.cluster_sizes == (3, 5, 1, 7)
    table = np.array([3, 5, 1, 7, 16, 2, 2], dtype=np.int64)
    rn.verify_rounds(table, np.array([0, 4, 5, 7], dtype=np.int64))
    assert rn.cluster_sizes == (3, 5, 1, 7)  # a check configures nothing
    with pytest.raises(MappingError, match="RN inputs"):
        rn.verify_rounds(table, np.array([0, 4, 6, 7], dtype=np.int64))
    with pytest.raises(MappingError):
        rn.configure_clusters([9, 8])
    with pytest.raises(MappingError, match="positive"):
        rn.configure_clusters([4, 0])
