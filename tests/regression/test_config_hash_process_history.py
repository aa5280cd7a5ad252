"""A config's hash does not depend on which configs were hashed before.

``config_hash`` memoised digests by config *value*, and ``2 == 2.0``
(also ``hash(2) == hash(2.0)``): ``dataclasses.replace(tpu_like(num_pes=16),
clock_ghz=2)`` hashed to ``6424e01b4affc601`` in a fresh process but to
``93361e8b8385c0e5`` — the ``clock_ghz=2.0`` digest — once the float
config had been hashed in the same process. So a config's cache shard and
registry identity depended on process history. The memo is now keyed by
field values *and* types, the DRAM config's included: every config gets
its fresh-process digest.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.config import DramConfig, tpu_like
from repro.observability.provenance import config_hash

#: a field whose int and float values compare equal -> how to set it
FIELDS = {
    "clock_ghz": lambda value: dataclasses.replace(
        tpu_like(num_pes=16), clock_ghz=value),
    "dram.bandwidth_gbps": lambda value: dataclasses.replace(
        tpu_like(num_pes=16), dram=DramConfig(bandwidth_gbps=value)),
}

_FRESH = """
import dataclasses, json, sys
from repro.config import DramConfig, tpu_like
from repro.observability.provenance import config_hash
field, value = sys.argv[1], json.loads(sys.argv[2])
if field == "clock_ghz":
    config = dataclasses.replace(tpu_like(num_pes=16), clock_ghz=value)
else:
    config = dataclasses.replace(
        tpu_like(num_pes=16), dram=DramConfig(bandwidth_gbps=value))
print(config_hash(config))
"""


def _fresh_process_hash(field, value):
    """The digest a process that hashed nothing else gives."""
    run = subprocess.run(
        [sys.executable, "-c", _FRESH, field, json.dumps(value)],
        capture_output=True, text=True, check=True,
    )
    return run.stdout.strip()


def test_the_fresh_process_digests_differ():
    assert _fresh_process_hash("clock_ghz", 2) == "6424e01b4affc601"
    assert _fresh_process_hash("clock_ghz", 2.0) == "93361e8b8385c0e5"


@pytest.mark.parametrize("field, order", [
    ("clock_ghz", (2.0, 2)),
    ("clock_ghz", (2, 2.0)),
    ("dram.bandwidth_gbps", (512.0, 512)),
    ("dram.bandwidth_gbps", (512, 512.0)),
])
def test_equal_configs_of_other_types_keep_their_own_digest(field, order):
    # a list, not a dict: 2 and 2.0 are one dict key
    fresh = [(value, _fresh_process_hash(field, value)) for value in order]
    assert fresh[0][1] != fresh[1][1]
    # new objects each time: the digest stored on an instance is not the
    # memo under test
    for value, digest in fresh + fresh[::-1]:
        assert config_hash(FIELDS[field](value)) == digest, (field, order)
