"""A malformed cache entry is a miss, never a crash.

An entry file that parses as JSON can still hold a payload
``LayerReport.from_payload`` cannot rebuild: an empty object, a list, a
payload without counters, a non-integer cycle count. ``SimCache.get``
checks every field the rebuild reads, so such an entry counts as a miss,
its layer re-simulates and ``put`` overwrites the file with a good entry.
Before that check, the first four modes below escaped the runner's merge
as a bare ``KeyError`` / ``ValueError`` and the field cases were served
as hits.
"""

import json

import pytest

from repro.config import tpu_like
from repro.frontend.models import build_model, model_input
from repro.parallel import ParallelModelRunner, SimCache

CONFIG = tpu_like(num_pes=16)


def _entry_modes():
    """name → rewrite of one stored entry's text."""

    def with_payload(change):
        def rewrite(text):
            record = json.loads(text)
            record["payload"] = change(record["payload"])
            return json.dumps(record, sort_keys=True)
        return rewrite

    def without_counters(payload):
        return {k: v for k, v in payload.items() if k != "counters"}

    def cut_after_two_fields(payload):
        # a payload cut short but closed again: still valid JSON
        return dict(list(payload.items())[:2])

    return {
        "empty-payload": with_payload(lambda payload: {}),
        "list-payload": with_payload(lambda payload: []),
        "no-counters": with_payload(without_counters),
        "cycles-not-int": with_payload(
            lambda payload: {**payload, "cycles": "oops"}),
        "truncated-file": lambda text: text[: len(text) // 2],
        "truncated-payload": with_payload(cut_after_two_fields),
    }


MODES = _entry_modes()


def _run(directory):
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    cache = SimCache(directory)
    result = ParallelModelRunner(CONFIG, jobs=1, cache=cache).run_model(model, x)
    return result, cache


def _payloads(report):
    return [layer.to_payload() for layer in report.layers]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_malformed_entry_is_a_miss_and_is_rewritten(tmp_path, mode):
    cold, _ = _run(tmp_path)
    entries = sorted(tmp_path.rglob("*.json"))
    assert cold.simulated == len(entries) > 1
    victim = entries[0]
    good = victim.read_text(encoding="utf-8")
    victim.write_text(MODES[mode](good), encoding="utf-8")

    warm, cache = _run(tmp_path)
    assert _payloads(warm.report) == _payloads(cold.report)
    # exactly the spoiled entry re-simulates; every layer sharing its key
    # misses and folds onto that one simulation
    assert warm.simulated == 1
    assert cache.misses == warm.deduplicated + 1
    assert cache.hits == warm.cache_hits == len(warm.report.layers) - cache.misses
    # put rewrote the entry byte for byte
    assert victim.read_text(encoding="utf-8") == good

    again, _ = _run(tmp_path)
    assert again.simulated == 0
    assert _payloads(again.report) == _payloads(cold.report)


def _stored_payload():
    return {
        "name": "g", "kind": "gemm", "cycles": 7, "macs": 128, "outputs": 16,
        "multiplier_utilization": 0.5,
        "counters": {"gb_reads": 3, "mn_multiplications": 128},
        "extra": {"stalls": {"compute_busy": 7}},
    }


BAD_FIELDS = {
    "name-not-str": ("name", 3),
    "kind-not-str": ("kind", None),
    "cycles-bool": ("cycles", True),
    "cycles-float": ("cycles", 7.0),
    "macs-str": ("macs", "128"),
    "outputs-missing": ("outputs", KeyError),
    "utilization-str": ("multiplier_utilization", "0.5"),
    "utilization-bool": ("multiplier_utilization", False),
    "counters-list": ("counters", [["gb_reads", 3]]),
    "counter-negative": ("counters", {"gb_reads": -3}),
    "counter-float": ("counters", {"gb_reads": 3.0}),
    "counter-null": ("counters", {"gb_reads": None}),
    "extra-list": ("extra", []),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_every_field_from_payload_reads_is_checked(tmp_path, case):
    key = "k" * 64
    SimCache(tmp_path).put(key, _stored_payload(), CONFIG)
    assert SimCache(tmp_path).get(key, CONFIG) == _stored_payload()

    field, value = BAD_FIELDS[case]
    payload = _stored_payload()
    if value is KeyError:
        del payload[field]
    else:
        payload[field] = value
    SimCache(tmp_path).put(key, payload, CONFIG)
    reader = SimCache(tmp_path)
    assert reader.get(key, CONFIG) is None
    assert (reader.hits, reader.misses) == (0, 1)


def test_a_payload_without_extra_is_still_a_hit(tmp_path):
    # from_payload reads ``extra`` with a default, so the check does too
    payload = {k: v for k, v in _stored_payload().items() if k != "extra"}
    SimCache(tmp_path).put("k", payload, CONFIG)
    assert SimCache(tmp_path).get("k", CONFIG) == payload
