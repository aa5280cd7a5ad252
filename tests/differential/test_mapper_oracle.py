"""The mapper scores integer tuples; the object-based loop is its oracle.

``generate_conv_tile`` / ``generate_gemm_tile`` used to build, validate
and score a frozen :class:`TileConfig` for every candidate. They now
score the candidates' eight fields as integers and build one
``TileConfig``, the winner, and enumerate a channel count's divisors in
pairs up to its square root. This file keeps the object-based loop and
the divisor scan (below, the code as it was) and holds the mapper to it
over Hypothesis-drawn layers x ``num_ms`` x bandwidth x forwarding x
power-of-two clusters: the same tile, ties included, or the same
exception type and text.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.config.tile import TileConfig, generate_conv_tile, generate_gemm_tile
from repro.errors import MappingError


def _divisors_descending(value, limit):
    return [d for d in range(min(value, limit), 0, -1) if value % d == 0]


def _candidate_channel_slices(c, budget):
    candidates = set(_divisors_descending(c, budget))
    candidates.add(min(c, budget))
    return sorted(candidates, reverse=True)


def _reference_score(layer, tile, bandwidth, forwarding):
    folds = tile.folds_for(layer)
    steps = tile.iterations_for(layer) * folds
    input_clusters = tile.t_g * tile.t_n * tile.t_x * tile.t_y
    window = tile.cluster_size
    if forwarding and layer.r * layer.s > 1:
        fresh_cols = min(tile.t_y * layer.stride, tile.t_s)
        fresh = min(tile.t_r * tile.t_c * fresh_cols, window)
    else:
        fresh = window
    slots = fresh * input_clusters + (tile.num_clusters if folds > 1 else 0)
    step_cycles = max(1.0, math.ceil(slots / bandwidth))
    return steps * step_cycles


def _reference_conv_tile(
    layer, num_ms, bandwidth=0, forwarding=True, power_of_two_clusters=False
):
    if num_ms < 1:
        raise MappingError("cannot tile onto an empty fabric")
    bandwidth = bandwidth or num_ms

    window = layer.r * layer.s
    if power_of_two_clusters:
        candidates = []
        t_c = 1
        while t_c * 2 <= min(layer.c, num_ms):
            t_c *= 2
        while t_c >= 1:
            budget = num_ms // t_c
            t_k = min(layer.k, budget)
            budget //= max(t_k, 1)
            t_y = min(layer.y_out, budget)
            candidates.append(TileConfig(t_c=t_c, t_k=t_k, t_y=max(t_y, 1)))
            t_c //= 2
            if len(candidates) >= 4:
                break
        best = None
        best_score = None
        for tile in candidates:
            tile.validate_for(layer, num_ms)
            score = _reference_score(layer, tile, bandwidth, forwarding=False)
            if best_score is None or score < best_score:
                best, best_score = tile, score
        return best

    candidates = []
    if window > num_ms:
        t_r = max(1, num_ms // layer.s)
        t_s = layer.s if t_r * layer.s <= num_ms else num_ms
        t_r = t_r if t_r * t_s <= num_ms else 1
        candidates.append(
            TileConfig(t_r=min(t_r, layer.r), t_s=min(t_s, layer.s))
        )
    else:
        for t_c in _candidate_channel_slices(layer.c, num_ms // window):
            cluster = window * t_c
            budget = num_ms // cluster
            t_k = min(layer.k, budget)
            budget //= max(t_k, 1)
            t_y = min(layer.y_out, budget)
            budget //= max(t_y, 1)
            t_x = min(layer.x_out, budget)
            budget //= max(t_x, 1)
            t_g = min(layer.g, budget)
            budget //= max(t_g, 1)
            t_n = min(layer.n, max(budget, 1))
            candidates.append(
                TileConfig(
                    t_r=layer.r, t_s=layer.s, t_c=t_c, t_g=t_g,
                    t_k=t_k, t_n=t_n, t_x=t_x, t_y=t_y,
                )
            )
    if window > 1:
        for t_c in _candidate_channel_slices(layer.c, num_ms):
            budget = num_ms // t_c
            t_k = min(layer.k, budget)
            budget //= max(t_k, 1)
            t_y = min(layer.y_out, budget)
            budget //= max(t_y, 1)
            t_g = min(layer.g, max(budget, 1))
            candidates.append(TileConfig(t_c=t_c, t_g=t_g, t_k=t_k, t_y=t_y))

    best = None
    best_score = None
    for tile in candidates:
        tile.validate_for(layer, num_ms)
        score = _reference_score(layer, tile, bandwidth, forwarding)
        if best_score is None or score < best_score or (
            score == best_score and tile.cluster_size > best.cluster_size
        ):
            best, best_score = tile, score
    return best


def _reference_gemm_tile(gemm, num_ms, bandwidth=0):
    if num_ms < 1:
        raise MappingError("cannot tile onto an empty fabric")
    layer = ConvLayerSpec(
        r=1, s=1, c=gemm.k, k=gemm.m, x=1, y=gemm.n, name=gemm.name or "gemm"
    )
    tile = _reference_conv_tile(layer, num_ms, bandwidth, forwarding=False)
    return TileConfig(t_c=tile.cluster_size, t_k=tile.t_k, t_y=tile.t_y)


def _outcome(call, *args, **kwargs):
    """The tile's eight fields, or the exception's type and text."""
    try:
        tile = call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any raise
        return type(exc), str(exc)
    assert type(tile) is TileConfig
    return (tile.t_r, tile.t_s, tile.t_c, tile.t_g,
            tile.t_k, tile.t_n, tile.t_x, tile.t_y)


@st.composite
def conv_layers(draw):
    r = draw(st.integers(1, 7))
    s = draw(st.integers(1, 7))
    stride = draw(st.integers(1, 3))
    x = draw(st.integers(r, r + 24))
    y = draw(st.integers(s, s + 24))
    return ConvLayerSpec(
        r=r, s=s, c=draw(st.integers(1, 5000)), k=draw(st.integers(1, 300)),
        g=draw(st.integers(1, 64)), n=draw(st.integers(1, 4)),
        x=x, y=y, stride=stride,
    )


#: fabric sizes: non-positive (rejected), small, ragged and power-of-two
NUM_MS = st.one_of(
    st.integers(-2, 0), st.integers(1, 40),
    st.sampled_from([64, 100, 128, 256, 1024]),
)
#: 0 selects the fabric width; negative widths clamp the step to a cycle
BANDWIDTH = st.one_of(st.just(0), st.integers(-3, 300))


@given(conv_layers(), NUM_MS, BANDWIDTH, st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_conv_tile_matches_the_object_loop(
    layer, num_ms, bandwidth, forwarding, power_of_two
):
    args = (layer, num_ms, bandwidth, forwarding, power_of_two)
    assert _outcome(generate_conv_tile, *args) == _outcome(
        _reference_conv_tile, *args
    )


@given(
    st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 5000),
    NUM_MS, BANDWIDTH,
)
@settings(max_examples=300, deadline=None)
def test_gemm_tile_matches_the_object_loop(m, n, k, num_ms, bandwidth):
    gemm = GemmSpec(m=m, n=n, k=k)
    assert _outcome(generate_gemm_tile, gemm, num_ms, bandwidth) == _outcome(
        _reference_gemm_tile, gemm, num_ms, bandwidth
    )


def test_ties_keep_the_first_candidate_or_the_larger_cluster():
    """A 1x1 layer whose channel slices all finish in one step: the
    general branch breaks the tie towards the larger cluster, the
    power-of-two branch keeps the first candidate."""
    tie = ConvLayerSpec(r=1, s=1, c=8, k=1, x=1, y=1)
    for pow2 in (False, True):
        args = (tie, 64, 64, True, pow2)
        assert _outcome(generate_conv_tile, *args) == _outcome(
            _reference_conv_tile, *args
        )
    assert generate_conv_tile(tie, 64).t_c == 8
