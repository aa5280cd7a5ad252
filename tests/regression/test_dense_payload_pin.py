"""Payload pin for the dense timing path (systolic array and MAERI).

``dense_payload_pin.json`` holds, per case, the sha256 of every layer's
``json.dumps(to_payload(), sort_keys=True)`` and of each component's
final counter file. The cases are every zoo model at batch 2 on

- ``tpu_like(16)`` output-stationary and weight-stationary (grouped
  convs there are many identical GEMMs, whose DRAM records run in a row),
- ``tpu_like(256)``,
- ``maeri_like(64, 32)`` and ``maeri_like(256, 128)`` (the mapper's
  general candidate loop),
- ``maeri_like(64, 32)`` on a plain reduction tree (the mapper's
  power-of-two branch),

each with the lenses off and with the stall and fabric ledgers on (their
ledgers ride in the payload's ``extra``). The digests were generated
before the dense layer's pricing was rewritten in closed form (grouped
DRAM records, integer tile scoring, counter deltas from a dict union).
Regenerate only when the timing model itself is meant to change::

    PYTHONPATH=src python tests/regression/test_dense_payload_pin.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import Dataflow, ReductionKind, maeri_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability

PIN_PATH = Path(__file__).with_name("dense_payload_pin.json")

BATCH = 2

DENSE_POINTS = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "tpu16ws": lambda: tpu_like(
        num_pes=16, dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "tpu256": lambda: tpu_like(num_pes=256),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
    "maeri256": lambda: maeri_like(num_ms=256, bandwidth=128),
    "maeri64rt": lambda: maeri_like(num_ms=64, bandwidth=32).with_updates(
        reduction=ReductionKind.RT
    ),
}

CASES = [
    (model, point, lenses)
    for model in MODEL_NAMES
    for point in DENSE_POINTS
    for lenses in (False, True)
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_digests(model_name, point, lenses):
    obs = Observability.create(stalls=True, fabric=True) if lenses else None
    acc = Accelerator(DENSE_POINTS[point](), observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=BATCH, seed=1)
    simulate(model, acc)
    try:
        model(x)
    finally:
        detach_context(model)
    return {
        "cycles": acc.report.total_cycles,
        "layers": [
            _sha(json.dumps(layer.to_payload(), sort_keys=True))
            for layer in acc.report.layers
        ],
        "counters": {
            component.name: _sha(
                json.dumps(component.counters.as_dict(), sort_keys=True)
            )
            for component in acc.components
        },
    }


def _key(model, point, lenses):
    return f"{model}/{point}/{'lenses' if lenses else 'plain'}"


def generate():
    return {_key(*case): case_digests(*case) for case in CASES}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


def test_pin_file_covers_exactly_these_cases(pins):
    assert set(pins) == {_key(*case) for case in CASES}


@pytest.mark.parametrize("model_name,point,lenses", CASES)
def test_dense_payload_pinned(pins, model_name, point, lenses):
    assert case_digests(model_name, point, lenses) == pins[
        _key(model_name, point, lenses)
    ]


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
