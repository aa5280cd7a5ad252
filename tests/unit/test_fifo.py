"""Bounded FIFO semantics and statistics (the reference clock's queues,
``tests/oracles/clock.py``)."""

import pytest

from repro.errors import SimulationError
from tests.oracles.clock import Fifo


def test_push_pop_order():
    fifo = Fifo("f", 4)
    fifo.push(1)
    fifo.push(2)
    assert fifo.pop() == 1
    assert fifo.pop() == 2


def test_overflow_raises():
    fifo = Fifo("f", 1)
    fifo.push("a")
    with pytest.raises(SimulationError, match="full"):
        fifo.push("b")


def test_underflow_raises():
    with pytest.raises(SimulationError, match="empty"):
        Fifo("f", 1).pop()


def test_peek_does_not_consume():
    fifo = Fifo("f", 2)
    fifo.push(7)
    assert fifo.peek() == 7
    assert len(fifo) == 1


def test_peek_empty_returns_none():
    assert Fifo("f", 1).peek() is None


def test_statistics():
    fifo = Fifo("f", 3)
    for item in range(3):
        fifo.push(item)
    fifo.pop()
    assert fifo.pushes == 3
    assert fifo.pops == 1
    assert fifo.peak_occupancy == 3


def test_reset():
    fifo = Fifo("f", 2)
    fifo.push(1)
    fifo.reset()
    assert fifo.is_empty
    assert fifo.pushes == 0


def test_zero_depth_rejected():
    with pytest.raises(SimulationError):
        Fifo("f", 0)


def test_full_and_empty_flags():
    fifo = Fifo("f", 1)
    assert fifo.is_empty and not fifo.is_full
    fifo.push(1)
    assert fifo.is_full and not fifo.is_empty


def test_interleaved_push_pop_keeps_order():
    fifo = Fifo("f", 2)
    fifo.push(1)
    fifo.push(2)
    assert fifo.pop() == 1
    fifo.push(3)
    assert fifo.pop() == 2
    assert fifo.pop() == 3


def test_backpressure_cycle_full_pop_push():
    """A full FIFO accepts exactly one push per pop (the producer
    contract the delivery loops rely on)."""
    fifo = Fifo("f", 2)
    fifo.push("a")
    fifo.push("b")
    assert fifo.is_full
    assert fifo.pop() == "a"
    assert not fifo.is_full
    fifo.push("c")
    assert fifo.is_full
    with pytest.raises(SimulationError, match="full"):
        fifo.push("d")


def test_peak_occupancy_is_high_water_mark():
    fifo = Fifo("f", 4)
    fifo.push(1)
    fifo.push(2)
    fifo.push(3)
    fifo.pop()
    fifo.pop()
    fifo.push(4)
    assert fifo.peak_occupancy == 3
    assert len(fifo) == 2


def test_peek_returns_head_not_tail():
    fifo = Fifo("f", 3)
    fifo.push("head")
    fifo.push("tail")
    assert fifo.peek() == "head"


def test_reset_clears_items_and_all_statistics():
    fifo = Fifo("f", 3)
    for item in range(3):
        fifo.push(item)
    fifo.pop()
    fifo.reset()
    assert fifo.is_empty
    assert fifo.pushes == 0
    assert fifo.pops == 0
    assert fifo.peak_occupancy == 0
    fifo.push("fresh")
    assert fifo.peek() == "fresh"
    assert fifo.peak_occupancy == 1


def test_drain_loop_statistics_balance():
    fifo = Fifo("f", 8)
    for round_items in (5, 3, 7):
        for item in range(round_items):
            fifo.push(item)
        while not fifo.is_empty:
            fifo.pop()
    assert fifo.pushes == fifo.pops == 15
    assert fifo.peak_occupancy == 7
