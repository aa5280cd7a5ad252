"""Export pin for the cycle trace.

A trace has no second implementation to diff against when the way the
tracer stores spans is restructured, so ``trace_export_pin.json`` is the
oracle instead: the sha256 of the byte-exact ``Tracer.to_chrome()`` and
``Tracer.to_jsonl()`` text, and the event count, for

- three zoo models (``mobilenets`` brings depthwise / grouped
  convolutions, ``squeezenet`` plain ones, ``bert`` GEMMs)
- on ``tpu_like(16)`` output-stationary, ``tpu_like(16)``
  weight-stationary and ``maeri_like(64, 32)``
- in engine mode ``cycle``, ``vector`` and ``auto``
- run serially and through ``simulate_parallel(jobs=2)`` (worker traces
  cross the process boundary and are rebased by ``Tracer.extend``).

The digests were generated at the commit *before* span runs existed
(ISSUE 16). Regenerate only when the trace itself is meant to change::

    PYTHONPATH=src python tests/regression/test_trace_export_pin.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import maeri_like, tpu_like
from repro.config.hardware import Dataflow, EngineMode
from repro.engine.accelerator import Accelerator
from repro.engine.systolic import ENGINE_MODE_ENV
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.observability import Observability

PIN_PATH = Path(__file__).with_name("trace_export_pin.json")

MODELS = ("mobilenets", "squeezenet", "bert")

POINTS = {
    "tpu16-os": lambda: tpu_like(num_pes=16),
    "tpu16-ws": lambda: tpu_like(
        num_pes=16, dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "maeri64": lambda: maeri_like(num_ms=64, bandwidth=32),
}

CASES = [
    (model, point, mode.value, path)
    for model in MODELS
    for point in POINTS
    for mode in EngineMode
    for path in ("serial", "parallel")
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def export_digests(model_name, point, mode, path):
    config = POINTS[point]().with_updates(engine_mode=EngineMode(mode))
    obs = Observability.create(trace=True)
    acc = Accelerator(config, observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    if path == "parallel":
        simulate_parallel(model, acc, x, jobs=2)
    else:
        simulate(model, acc)
        try:
            model(x)
        finally:
            detach_context(model)
    # exports first: they must not depend on anything having read
    # ``events`` before them
    chrome = obs.tracer.to_chrome()
    jsonl = obs.tracer.to_jsonl()
    return {
        "chrome": _sha(chrome),
        "jsonl": _sha(jsonl),
        "events": len(obs.tracer.events),
    }


def _key(*parts):
    return "/".join(parts)


def generate():
    return {_key(*case): export_digests(*case) for case in CASES}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


@pytest.fixture(autouse=True)
def _configured_engine_mode(monkeypatch):
    """The pin is per configured mode; the CI leg that forces one through
    the environment would make two thirds of the cases the same run."""
    monkeypatch.delenv(ENGINE_MODE_ENV, raising=False)


def test_pin_file_covers_exactly_these_cases(pins):
    assert set(pins) == {_key(*case) for case in CASES}


def test_every_mode_and_path_exports_the_same_trace(pins):
    """Engine mode and serial/parallel never show in a trace: one digest
    per (model, hardware point)."""
    for model in MODELS:
        for point in POINTS:
            distinct = {
                json.dumps(pins[key], sort_keys=True)
                for key in pins if key.startswith(f"{model}/{point}/")
            }
            assert len(distinct) == 1, (model, point)


@pytest.mark.parametrize("model_name,point,mode,path", CASES)
def test_trace_export_pinned(pins, model_name, point, mode, path):
    assert export_digests(model_name, point, mode, path) == pins[
        _key(model_name, point, mode, path)
    ]


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
