"""Hardware and DRAM scalars are typed: counts are ints, rates finite.

These inputs used to be accepted or to fail untyped:
``dn_bandwidth=2.5`` and ``ms_fifo_depth=1.5`` were accepted (a 8x12 @
12x9 GEMM then timed 267 cycles on a fractional bandwidth); a ``.cfg``
file with ``clock_ghz = nan`` or ``inf`` loaded, and the NaN clock later
died in the DRAM model with ``ValueError: cannot convert float NaN to
integer``; ``num_ms=16.0``, ``num_ms="16"`` and ``gb_size_kb=None`` raised
a bare ``TypeError`` from a comparison. Each is now a
:class:`~repro.errors.ConfigurationError` naming the field, and the
digest of a valid configuration is unchanged.
"""

import dataclasses

import pytest

from repro.config import (
    DramConfig,
    HardwareConfig,
    maeri_like,
    parse_config,
    sigma_like,
    tpu_like,
)
from repro.errors import ConfigurationError
from repro.observability.provenance import config_hash


@pytest.mark.parametrize("field, value", [
    ("dn_bandwidth", 2.5),
    ("rn_bandwidth", 2.0),
    ("ms_fifo_depth", 1.5),
    ("num_ms", 16.0),
    ("num_ms", "16"),
    ("gb_size_kb", None),
    ("gb_banks", "8"),
    ("technology_nm", 28.0),
    ("clock_ghz", float("nan")),
    ("clock_ghz", float("inf")),
    ("clock_ghz", "1.0"),
    ("clock_ghz", None),
    ("clock_ghz", True),
])
def test_hardware_scalar_is_typed(field, value):
    with pytest.raises(ConfigurationError, match=field):
        dataclasses.replace(maeri_like(16, bandwidth=4), **{field: value})


@pytest.mark.parametrize("field, value", [
    ("bandwidth_gbps", float("nan")),
    ("bandwidth_gbps", float("-inf")),
    ("bandwidth_gbps", "512"),
    ("size_mb", 1024.0),
    ("access_latency_cycles", 100.5),
    ("row_buffer_bytes", None),
    ("row_buffer_bytes", 0),
    ("row_hit_latency_cycles", "20"),
])
def test_dram_scalar_is_typed(field, value):
    with pytest.raises(ConfigurationError, match=field.split("_")[0]):
        DramConfig(**{field: value})


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_config_file_rejects_a_non_finite_clock(text):
    with pytest.raises(ConfigurationError, match="clock_ghz"):
        parse_config(f"[General]\nclock_ghz = {text}\n")


def test_config_file_rejects_a_non_finite_dram_bandwidth():
    with pytest.raises(ConfigurationError, match="bandwidth_gbps"):
        parse_config("[DRAM]\nbandwidth_gbps = nan\n")


@pytest.mark.parametrize("config, digest", [
    (HardwareConfig(), "c72942aaf29ab813"),
    (maeri_like(16, bandwidth=4), "6c1a4058425d16bf"),
    (sigma_like(64, bandwidth=32), "29d062eb69d5dfa8"),
    (tpu_like(num_pes=16), "9feb568cc87d3354"),
])
def test_valid_configs_keep_their_digest(config, digest):
    # digests as they were before the scalar checks existed
    assert config_hash(config) == digest
