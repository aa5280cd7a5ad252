"""DRAM timing/traffic model."""

import numpy as np
import pytest

from repro.config.hardware import DramConfig
from repro.errors import SimulationError
from repro.memory.dram import Dram


@pytest.fixture
def dram():
    return Dram(DramConfig(bandwidth_gbps=512.0), clock_ghz=1.0)


def test_bytes_per_cycle(dram):
    assert dram.bytes_per_cycle == 512.0


def test_transfer_cycles(dram):
    assert dram.transfer_cycles(0) == 0
    assert dram.transfer_cycles(512) == 1
    assert dram.transfer_cycles(513) == 2
    assert dram.transfer_cycles(1) == 1


def test_transfer_rejects_negative(dram):
    with pytest.raises(ValueError):
        dram.transfer_cycles(-1)


def test_traffic_counters(dram):
    dram.record_read(1000)
    dram.record_write(500)
    assert dram.counters["dram_bytes_read"] == 1000
    assert dram.counters["dram_bytes_written"] == 500


def test_row_buffer_hits(dram):
    dram.record_read(64, address=0)
    dram.record_read(64, address=128)  # same 2 KB row
    dram.record_read(64, address=4096)  # different row
    assert dram.counters["dram_row_hits"] == 1
    assert dram.counters["dram_row_misses"] == 2


def test_access_latency_depends_on_row_state(dram):
    dram.record_read(64, address=0)
    assert dram.access_latency(64) == dram.config.row_hit_latency_cycles
    assert dram.access_latency(1 << 20) == dram.config.access_latency_cycles


def test_zero_byte_record_is_noop(dram):
    dram.record_read(0)
    assert "dram_bytes_read" not in dram.counters


def test_clock_scaling():
    fast = Dram(DramConfig(bandwidth_gbps=512.0), clock_ghz=2.0)
    # at 2 GHz the same GB/s provides fewer bytes per cycle
    assert fast.bytes_per_cycle == 256.0


def test_reset(dram):
    dram.record_read(64, address=0)
    dram.reset()
    assert len(dram.counters) == 0
    assert dram.access_latency(0) == dram.config.access_latency_cycles


def _state(dram):
    return dram.counters.as_dict(), dram._last_row


@pytest.mark.parametrize("times", [1, 2, 7, 256])
@pytest.mark.parametrize("open_row", [None, 0, 4096], ids=["cold", "same", "other"])
@pytest.mark.parametrize("num_bytes", [0, 64, 5000])
@pytest.mark.parametrize("record", ["record_read", "record_write"])
def test_times_equals_that_many_single_records(times, open_row, num_bytes, record):
    """One ``times=n`` record leaves the counters and the open row that n
    single records leave: the first decides hit or miss, the rest hit."""
    batched = Dram(DramConfig(bandwidth_gbps=512.0), clock_ghz=1.0)
    single = Dram(DramConfig(bandwidth_gbps=512.0), clock_ghz=1.0)
    if open_row is not None:
        for dram in (batched, single):
            dram.record_read(8, address=open_row)
    getattr(batched, record)(num_bytes, address=100, times=times)
    for _ in range(times):
        getattr(single, record)(num_bytes, address=100)
    assert _state(batched) == _state(single)


def test_numpy_integer_times_is_the_plain_int_record(dram):
    reference = Dram(DramConfig(bandwidth_gbps=512.0), clock_ghz=1.0)
    reference.record_write(32, times=3)
    dram.record_write(32, times=np.int64(3))
    assert _state(dram) == _state(reference)
    assert all(type(v) is int for v in dram.counters.as_dict().values())


@pytest.mark.parametrize(
    "times", [0, -2, 1.5, 2.0, "2", None, np.float64(2)],
    ids=["zero", "negative", "float", "whole-float", "str", "none", "np-float"],
)
@pytest.mark.parametrize("record", ["record_read", "record_write"])
def test_bad_times_raises_before_a_counter_moves(dram, times, record):
    with pytest.raises(SimulationError, match="at least once") as caught:
        getattr(dram, record)(64, times=times)
    assert repr(times) in str(caught.value)
    assert _state(dram) == ({}, -1)
