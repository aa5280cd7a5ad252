"""Differential suite: SNAPEA's termination scan against its old body.

``SnapeaContext._termination_lengths`` forms each filter's reordered
products in one buffer, sums them in place and adds the bias only to the
rows a sign check reads. The oracle below is the body it replaced: a
fresh product, running sum and biased copy per filter, and the cut taken
from ``any`` + ``argmax``. Lengths and predictive masks must be equal bit
for bit over generated filters, activations, biases and both modes.

Seeding the bias into the first running sum instead (the accumulator
"starting at the bias") is the same sum in exact arithmetic but not in
float32; ``tests/oracles/mutants.py`` checks that this suite catches it
(the ``@example`` below is one case where it cuts a different length).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.opts.snapea import SnapeaContext


def _oracle_termination_lengths(ctx, w2d, cols, terminate, bias=None):
    """The per-filter scan ``_termination_lengths`` used to be."""
    k, dot = w2d.shape
    n_out = cols.shape[1]
    lengths = np.full((k, n_out), dot, dtype=np.int64)
    predictive = ctx.mode == "predictive"
    predicted_zero = (
        np.zeros((k, n_out), dtype=bool) if predictive and terminate else None
    )
    if not terminate or dot == 1:
        return lengths, predicted_zero
    if bias is None:
        bias = np.zeros(k, dtype=np.float32)
    window = max(1, int(round(dot * ctx.window_fraction)))
    for f in range(k):
        w = w2d[f]
        pos = np.where(w > 0)[0]
        neg = np.where(w <= 0)[0]
        order = np.concatenate(
            [pos[np.argsort(-w[pos], kind="stable")],
             neg[np.argsort(w[neg], kind="stable")]]
        )
        ws = w[order]
        npos = len(pos)
        csum = bias[f] + np.cumsum(ws[:, None] * cols[order, :], axis=0)
        if npos < dot:
            start = max(npos - 1, 0)
            region = csum[start:, :] <= 0.0
            has_cut = region.any(axis=0)
            first = np.argmax(region, axis=0)
            cut_lengths = start + first + 1
            lengths[f] = np.where(has_cut, cut_lengths, dot)
        if predictive:
            predicted = csum[window - 1, :] < ctx.threshold
            cut_now = predicted & (lengths[f] > window)
            lengths[f] = np.where(cut_now, window, lengths[f])
            predicted_zero[f] = cut_now
    return lengths, predicted_zero


#: few distinct values, so running sums cancel to exactly zero often,
#: and a bias small enough that the order of float32 additions decides a
#: check; or arbitrary small floats
EXACT = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])
TINY = st.sampled_from([2.0**-30, -(2.0**-30)])
ANY = st.floats(-4, 4, width=32)


@st.composite
def scans(draw):
    k = draw(st.integers(1, 5))
    dot = draw(st.integers(1, 24))
    n_out = draw(st.integers(1, 12))
    values = draw(st.sampled_from([EXACT, ANY]))
    w2d = draw(arrays(np.float32, (k, dot), elements=values))
    cols = draw(arrays(np.float32, (dot, n_out), elements=values))
    bias = draw(st.none() | arrays(np.float32, (k,), elements=values | TINY))
    return w2d, cols, bias


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scan=scans(),
    terminate=st.booleans(),
    mode=st.sampled_from(["exact", "predictive"]),
    window_fraction=st.floats(0.01, 1.0),
    threshold=st.floats(0.0, 2.0, width=32),
)
# the bias seeded into the first running sum cuts this filter at 2 of 3
@example(
    scan=(np.array([[1.0, -1.0, -1.0]], np.float32),
          np.array([[1.0], [1.0], [0.0]], np.float32),
          np.array([2.0**-30], np.float32)),
    terminate=True, mode="exact", window_fraction=0.3, threshold=0.0,
)
def test_termination_lengths_match_the_per_filter_oracle(
    scan, terminate, mode, window_fraction, threshold
):
    w2d, cols, bias = scan
    ctx = SnapeaContext(
        mode=mode, threshold=threshold, window_fraction=window_fraction
    )
    lengths, mask = ctx._termination_lengths(w2d, cols, terminate, bias)
    want_lengths, want_mask = _oracle_termination_lengths(
        ctx, w2d, cols, terminate, bias
    )
    assert lengths.dtype == want_lengths.dtype
    assert lengths.tobytes() == want_lengths.tobytes()
    if want_mask is None:
        assert mask is None
    else:
        assert mask.dtype == want_mask.dtype
        assert mask.tobytes() == want_mask.tobytes()
