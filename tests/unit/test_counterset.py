"""CounterSet activity accounting."""

import numpy as np
import pytest

from repro.config import tpu_like
from repro.engine.accelerator import Accelerator
from repro.errors import SimulationError
from repro.noc.base import CounterSet


def test_starts_empty():
    counters = CounterSet()
    assert len(counters) == 0
    assert counters.get("anything") == 0


def test_add_and_get():
    counters = CounterSet()
    counters.add("mults", 5)
    counters.add("mults", 3)
    assert counters["mults"] == 8


def test_zero_add_creates_nothing():
    counters = CounterSet()
    counters.add("noop", 0)
    assert "noop" not in counters


def test_negative_add_rejected():
    with pytest.raises(ValueError):
        CounterSet().add("bad", -1)


def test_from_counts_equals_one_add_per_name():
    counts = {"mults": 5, "idle": 0, "reads": 2.7, "writes": np.int64(3)}
    one_by_one = CounterSet()
    for name, value in counts.items():
        one_by_one.add(name, int(value))
    built = CounterSet.from_counts(counts)
    assert built.as_dict() == one_by_one.as_dict() == {
        "mults": 5, "reads": 2, "writes": 3,
    }
    assert "idle" not in built
    counts["mults"] = 99  # the set holds its own dict
    assert built.get("mults") == 5


def test_from_counts_refuses_negative_counts():
    with pytest.raises(ValueError, match="negative activity -4 to 'reads'"):
        CounterSet.from_counts({"mults": 1, "reads": -4})


def test_merge():
    a, b = CounterSet(), CounterSet()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a["x"] == 3 and a["y"] == 3


def test_diff():
    before = CounterSet()
    before.add("x", 5)
    after = CounterSet()
    after.add("x", 8)
    after.add("y", 2)
    delta = after.diff(before)
    assert delta["x"] == 3 and delta["y"] == 2


def test_diff_rejects_backwards_counters():
    before, after = CounterSet(), CounterSet()
    before.add("x", 5)
    after.add("x", 3)
    with pytest.raises(ValueError):
        after.diff(before)


def _counters(**counts):
    counters = CounterSet()
    for name, value in counts.items():
        counters.add(name, value)
    return counters


def test_union_of_disjoint_sets():
    union = CounterSet.union([_counters(a=1, b=2), _counters(), _counters(c=3)])
    assert union.as_dict() == {"a": 1, "b": 2, "c": 3}
    union.add("a", 4)  # an independent file
    assert union["a"] == 5


def test_union_rejects_a_name_two_sets_record():
    with pytest.raises(SimulationError, match=r"\['b'\]"):
        CounterSet.union([_counters(a=1, b=2), _counters(b=1, c=3)])


def test_accelerator_snapshot_enforces_disjoint_component_counters():
    acc = Accelerator(tpu_like(num_pes=16))
    acc.run_gemm(np.ones((4, 4), np.float32), np.ones((4, 4), np.float32))
    acc.dram.counters.add("gb_reads", 1)  # a name the GB owns
    with pytest.raises(SimulationError, match="gb_reads"):
        acc.run_gemm(np.ones((4, 4), np.float32), np.ones((4, 4), np.float32))


def test_diff_drops_unchanged_counters():
    before = _counters(x=5, y=1)
    after = _counters(x=5, y=4, z=2)
    assert after.diff(before).as_dict() == {"y": 3, "z": 2}


def test_copy_is_independent():
    original = CounterSet()
    original.add("x", 1)
    clone = original.copy()
    clone.add("x", 1)
    assert original["x"] == 1 and clone["x"] == 2


def test_scaled():
    counters = CounterSet()
    counters.add("x", 4)
    assert counters.scaled(3)["x"] == 12


def test_iteration_is_sorted():
    counters = CounterSet()
    counters.add("b", 1)
    counters.add("a", 1)
    assert list(counters) == ["a", "b"]


def test_as_dict_and_reset():
    counters = CounterSet()
    counters.add("x", 2)
    assert counters.as_dict() == {"x": 2}
    counters.reset()
    assert len(counters) == 0
