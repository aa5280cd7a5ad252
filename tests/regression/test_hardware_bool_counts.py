"""A ``bool`` is no hardware count.

``_check_int`` tested ``isinstance(value, int)``, which a ``bool``
passes: ``dataclasses.replace(maeri_like(16, 4), dn_bandwidth=True)``
built and timed layers on a one-element DN bandwidth, while its config
hash and every report wrote the field as ``true``. Every count of
:class:`HardwareConfig` and :class:`DramConfig` now refuses ``True`` and
``False`` with a :class:`~repro.errors.ConfigurationError` naming the
field, as the rates (``clock_ghz``, ``bandwidth_gbps``) already did.
"""

import dataclasses

import pytest

from repro.config import DramConfig, maeri_like
from repro.errors import ConfigurationError

HARDWARE_COUNTS = (
    "num_ms", "dn_bandwidth", "rn_bandwidth", "gb_size_kb", "gb_banks",
    "ms_fifo_depth", "dn_fifo_depth", "rn_fifo_depth", "technology_nm",
)
DRAM_COUNTS = (
    "size_mb", "access_latency_cycles", "row_buffer_bytes",
    "row_hit_latency_cycles",
)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", HARDWARE_COUNTS)
def test_hardware_count_refuses_a_bool(field, value):
    with pytest.raises(
        ConfigurationError,
        match=rf"HardwareConfig\.{field} must be an int, got {value}",
    ):
        dataclasses.replace(maeri_like(16, bandwidth=4), **{field: value})


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", DRAM_COUNTS)
def test_dram_count_refuses_a_bool(field, value):
    with pytest.raises(
        ConfigurationError,
        match=rf"DramConfig\.{field} must be an int, got {value}",
    ):
        DramConfig(**{field: value})
