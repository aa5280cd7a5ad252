"""Sample pin for the systolic array under a metrics recorder.

A metrics sample reads the counter file at a tile boundary, so it is the
one output that depends on *when* the engine writes its counters, not
only on what it writes. ``metrics_sample_pin.json`` is the
oracle for restructuring that: the sha256 of ``MetricsRecorder.to_json()``,
of the tracer's ``counter`` events (the samples mirrored into the trace)
and of every layer payload, for

- three zoo models (``mobilenets`` brings depthwise / grouped
  convolutions, ``squeezenet`` plain ones, ``bert`` GEMMs)
- on ``tpu_like(16)`` output-stationary, ``tpu_like(16)``
  weight-stationary and ``tpu_like(256)``
- sampled every 64 and every 1000 cycles, trace off and on
- in engine mode ``cycle``, ``vector`` and ``auto`` (the mode is inert:
  all three must match one entry)
- run serially and through ``simulate_parallel(jobs=2)`` (worker samples
  cross the process boundary and are rebased by ``MetricsRecorder.ingest``).

The digests were generated at the commit *before* the walk tallied its
tiles (ISSUE 17). Regenerate only when the samples themselves are meant
to change::

    PYTHONPATH=src python tests/regression/test_metrics_sample_pin.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import tpu_like
from repro.config.hardware import Dataflow, EngineMode
from repro.engine.accelerator import Accelerator
from repro.frontend.models import build_model, model_input
from repro.frontend.simulated import detach_context, simulate, simulate_parallel
from repro.observability import Observability
from repro.observability.tracer import PHASE_COUNTER

PIN_PATH = Path(__file__).with_name("metrics_sample_pin.json")

MODELS = ("mobilenets", "squeezenet", "bert")

POINTS = {
    "tpu16-os": lambda: tpu_like(num_pes=16),
    "tpu16-ws": lambda: tpu_like(
        num_pes=16, dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "tpu256": lambda: tpu_like(num_pes=256),
}

CADENCES = (64, 1000)

CASES = [
    (model, point, every, trace, mode.value, path)
    for model in MODELS
    for point in POINTS
    for every in CADENCES
    for trace in (False, True)
    for mode in EngineMode
    for path in ("serial", "parallel")
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sample_digests(model_name, point, every, trace, mode, path):
    config = POINTS[point]().with_updates(engine_mode=EngineMode(mode))
    obs = Observability.create(trace=trace, metrics_every=every)
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
    digests = {
        "samples": len(obs.metrics),
        "metrics": _sha(obs.metrics.to_json()),
        "payload": _sha(json.dumps(
            [layer.to_payload() for layer in acc.report.layers],
            sort_keys=True,
        )),
    }
    if trace:
        digests["counter_events"] = _sha(json.dumps(
            [
                dataclasses.asdict(event) for event in obs.tracer.events
                if event.phase == PHASE_COUNTER
            ],
            sort_keys=True,
        ))
    return digests


def _key(model_name, point, every, _trace, _mode, path):
    """The engine mode is inert and a tracer only mirrors the samples,
    so neither is part of a pin's name: the six (trace, mode) runs of a
    stream are held to one entry."""
    return "/".join([model_name, point, f"every{every}", path])


def generate():
    pins = {}
    for case in CASES:
        digests = sample_digests(*case)
        entry = pins.setdefault(_key(*case), {})
        assert all(entry.get(name, d) == d for name, d in digests.items()), case
        entry.update(digests)
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


def test_pin_file_covers_exactly_these_cases(pins):
    assert set(pins) == {_key(*case) for case in CASES}
    assert all("counter_events" in entry for entry in pins.values())


@pytest.mark.parametrize("model_name,point,every,trace,mode,path", CASES)
def test_metrics_samples_pinned(
    pins, model_name, point, every, trace, mode, path
):
    pinned = pins[_key(model_name, point, every, trace, mode, path)]
    digests = sample_digests(model_name, point, every, trace, mode, path)
    assert digests == {name: pinned[name] for name in digests}


if __name__ == "__main__":
    # one entry per line: 36 streams, not 36 x 5 lines
    entries = ",\n".join(
        f" {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(generate().items())
    )
    PIN_PATH.write_text("{\n" + entries + "\n}\n")
    print(f"wrote {PIN_PATH}")
