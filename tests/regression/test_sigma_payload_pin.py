"""Payload pin for the sparse (SIGMA-like) timing path.

The sparse controller has a single timing path, so there is no second
implementation to diff against when it is restructured. This file is
that oracle instead: ``sigma_payload_pin.json`` holds sha256 digests of
the byte-exact ``to_payload()`` serialization (and, with the lenses on,
of every trace event) for

- every zoo model on ``sigma_like(64, 32)`` and ``sigma_like(256, 128)``,
  lenses off and with trace + stalls + fabric on;
- three direct ``run_spmm`` cases the zoo does not reach — a Largest
  Filter First ``round_builder``, rows wider than the fabric (folded
  chunks sharing a round) and ``streaming=`` dual-sided sparsity — with
  the controller's ``SparseRunResult`` (``round_stats`` included) and a
  ``metrics_every`` sample stream digested too;
- what running the rounds as columns newly stresses (ISSUE 20): two zoo
  models on ``sigma64`` under a metrics recorder alone (a commit before
  every per-round sample, on a real network), and five more direct
  cases — a bandwidth-1 dual-sided GEMM whose DN queue carries over
  from round to round and is still non-empty at the end, an all-zero
  stationary operand (no rounds), ``n_cols=1`` with and without
  ``streaming=``, and the sparse controller on a Tree DN + ART
  (MAERI fabric).

The first two groups were generated at the commit *before* the
round-plan refactor (ISSUE 13), the third at the commit before the
round columns (ISSUE 20). Regenerate only when the timing model itself
is meant to change::

    PYTHONPATH=src python tests/regression/test_sigma_payload_pin.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analytical.sigma_model import uniform_sparse_matrix
from repro.config import ControllerKind, maeri_like, sigma_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.opts import largest_filter_first_rounds

PIN_PATH = Path(__file__).with_name("sigma_payload_pin.json")

SIGMA_POINTS = {
    "sigma64": lambda: sigma_like(num_ms=64, bandwidth=32),
    "sigma256": lambda: sigma_like(num_ms=256, bandwidth=128),
}

ZOO_CASES = [
    (model, point, lenses)
    for model in MODEL_NAMES
    for point in SIGMA_POINTS
    for lenses in (False, True)
]

#: (model, point) run with ``metrics_every=64`` and no other lens
ZOO_METRICS_CASES = [("squeezenet", "sigma64"), ("mobilenets", "sigma64")]


def _digest(value) -> str:
    """sha256 of the sorted-key JSON text (no ``default=``: a NumPy
    scalar leaking into a payload is a difference, not something to
    paper over)."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lenses(on, metrics_every=0):
    if not on and not metrics_every:
        return None
    return Observability.create(
        trace=on, stalls=on, fabric=on, metrics_every=metrics_every
    )


def _report_digests(acc, obs):
    digests = {
        "cycles": acc.report.total_cycles,
        "payload": _digest([layer.to_payload() for layer in acc.report.layers]),
    }
    if obs is not None and obs.tracer.enabled:
        digests["trace"] = _digest(
            [dataclasses.asdict(event) for event in obs.tracer.events]
        )
    if obs is not None and obs.metrics is not None:
        digests["metrics"] = _digest(
            [dataclasses.asdict(sample) for sample in obs.metrics.samples]
        )
    return digests


def zoo_digests(model_name, point, lenses, metrics_every=0):
    obs = _lenses(lenses, metrics_every)
    acc = Accelerator(SIGMA_POINTS[point](), observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    simulate(model, acc)
    try:
        model(x)
    finally:
        detach_context(model)
    return _report_digests(acc, obs)


def _lff_case():
    """Largest Filter First over mixed row sizes (some rows empty)."""
    stationary = uniform_sparse_matrix(48, 40, 0.7, seed=21)
    stationary[5] = 0.0
    stationary[17] = 0.0
    b = np.random.default_rng(22).standard_normal((40, 12)).astype(np.float32)
    return dict(a=stationary, b=b, round_builder=largest_filter_first_rounds)


def _folded_case():
    """Rows wider than the 32-MS fabric: their chunks stream through the
    free capacity, so the tail of one shares a round with other rows."""
    stationary = uniform_sparse_matrix(10, 120, 0.35, seed=23)
    stationary[3] = 0.0
    stationary[7, 10:] = 0.0
    b = np.random.default_rng(24).standard_normal((120, 9)).astype(np.float32)
    return dict(a=stationary, b=b)


def _dual_case():
    """``streaming=``: zeros in the KN operand shrink traffic and work."""
    stationary = uniform_sparse_matrix(24, 64, 0.6, seed=25)
    b = uniform_sparse_matrix(64, 14, 0.7, seed=26)
    b[:, 4] = 0.0
    return dict(a=stationary, b=b, sparse_streaming=True)


def _dual_bw1_case():
    """Dual-sided at bandwidth 1: each round enqueues ``round(mean unique
    per column) * n_cols`` DN slots but drains the per-column sum, so the
    queue grows 2 -> 4 -> 6 -> 8 across rounds and outlives the GEMM."""
    return dict(
        a=uniform_sparse_matrix(12, 24, 0.6, seed=0),
        b=uniform_sparse_matrix(24, 6, 0.5, seed=1000),
        sparse_streaming=True,
        config=sigma_like(num_ms=16, bandwidth=1),
    )


def _all_zero_case():
    """Nothing to map: zero rounds, no drain, setup + DRAM only."""
    b = np.random.default_rng(27).standard_normal((20, 7)).astype(np.float32)
    return dict(a=np.zeros((6, 20), dtype=np.float32), b=b)


def _ncols1_case():
    """One streamed column through folded rows."""
    kwargs = _folded_case()
    kwargs["b"] = kwargs["b"][:, :1]
    return kwargs


def _ncols1_dual_case():
    """One streamed column, dual-sided: the per-column mean is one value."""
    kwargs = _dual_case()
    kwargs["b"] = kwargs["b"][:, 2:3]
    return kwargs


def _maeri_sparse_case():
    """The sparse controller over a Tree DN and an ART (549 cycles)."""
    b = np.random.default_rng(28).standard_normal((64, 5)).astype(np.float32)
    return dict(
        a=_dual_case()["a"], b=b,
        config=maeri_like(num_ms=32, bandwidth=8).with_updates(
            controller=ControllerKind.SPARSE
        ),
    )


DIRECT_CASES = {
    "lff": _lff_case,
    "folded": _folded_case,
    "dual": _dual_case,
    "dual_bw1": _dual_bw1_case,
    "all_zero": _all_zero_case,
    "ncols1": _ncols1_case,
    "ncols1_dual": _ncols1_dual_case,
    "maeri_sparse": _maeri_sparse_case,
}


def direct_digests(case, lenses):
    kwargs = DIRECT_CASES[case]()
    config = kwargs.pop("config", sigma_like(num_ms=32, bandwidth=8))
    obs = _lenses(lenses, metrics_every=0 if lenses else 16)
    acc = Accelerator(config, observability=obs)
    acc.run_spmm(name=case, **kwargs)
    digests = _report_digests(acc, obs)
    # the controller's own summary, round_stats included
    ctrl = Accelerator(config).sparse_controller
    result = ctrl.run_spmm(
        kwargs["a"], kwargs["b"].shape[1], kwargs.get("round_builder"),
        streaming=kwargs["b"] if kwargs.get("sparse_streaming") else None,
    )
    digests["rounds"] = result.rounds
    digests["result"] = _digest(dataclasses.asdict(result))
    return digests


def _key(*parts):
    return "/".join(
        part if isinstance(part, str) else ("lenses" if part else "plain")
        for part in parts
    )


def generate():
    pins = {}
    for model, point, lenses in ZOO_CASES:
        pins[_key("zoo", model, point, lenses)] = zoo_digests(model, point, lenses)
    for model, point in ZOO_METRICS_CASES:
        pins[_key("zoo-metrics", model, point)] = zoo_digests(
            model, point, False, metrics_every=64
        )
    for case in DIRECT_CASES:
        for lenses in (False, True):
            pins[_key("direct", case, lenses)] = direct_digests(case, lenses)
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


def test_pin_file_covers_exactly_these_cases(pins):
    expected = {_key("zoo", *case) for case in ZOO_CASES} | {
        _key("zoo-metrics", *case) for case in ZOO_METRICS_CASES
    } | {
        _key("direct", case, lenses)
        for case in DIRECT_CASES for lenses in (False, True)
    }
    assert set(pins) == expected


@pytest.mark.parametrize("model_name,point,lenses", ZOO_CASES)
def test_zoo_sigma_payload_pinned(pins, model_name, point, lenses):
    assert zoo_digests(model_name, point, lenses) == pins[
        _key("zoo", model_name, point, lenses)
    ]


@pytest.mark.parametrize("model_name,point", ZOO_METRICS_CASES)
def test_zoo_sigma_metrics_samples_pinned(pins, model_name, point):
    pinned = pins[_key("zoo-metrics", model_name, point)]
    assert zoo_digests(model_name, point, False, metrics_every=64) == pinned
    assert "metrics" in pinned


@pytest.mark.parametrize("lenses", [False, True])
@pytest.mark.parametrize("case", sorted(DIRECT_CASES))
def test_direct_spmm_payload_pinned(pins, case, lenses):
    pinned = pins[_key("direct", case, lenses)]
    assert direct_digests(case, lenses) == pinned
    # the cases must keep reaching what they were written to reach
    assert (pinned["rounds"] > 1) == (case != "all_zero")
    assert (pinned["rounds"] == 0) == (case == "all_zero")


def test_dual_bw1_keeps_reaching_the_queue_carry_over():
    """The bandwidth-1 dual-sided GEMM must leave DN slots queued: that
    is the state a per-delivery closed form would lose."""
    kwargs = _dual_bw1_case()
    acc = Accelerator(kwargs.pop("config"))
    acc.run_spmm(name="dual_bw1", **kwargs)
    assert acc.dn.pending_slots == 8


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
