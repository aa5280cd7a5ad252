"""A config's energies do not depend on which tables were built before.

``EnergyTable.for_config`` scales the 28 nm / FP8 base table by a node
factor and a datatype factor, both read from module-level dicts. Were
the datatype factor ever folded into the node dict in place, building a
table for a wider datatype would rescale every later table at that node
(and the static energy, which reads the node factor alone): a default
config's energies would then depend on what else the process had priced
before it.
"""

import numpy as np

from repro.config import DataType, tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.energy import EnergyTable


def _energies(report, config):
    breakdown = report.total_energy()
    table = EnergyTable.for_config(config.technology_nm, config.dtype)
    return (
        dict(table.costs_pj), dict(breakdown.by_group_uj),
        breakdown.static_uj, breakdown.dram_uj,
    )


def test_a_wider_dtype_table_leaves_the_default_energies_alone():
    config = tpu_like(num_pes=16)
    assert config.dtype is DataType.FP8
    rng = np.random.default_rng(0)
    accelerator = Accelerator(config)
    accelerator.run_gemm(
        rng.standard_normal((8, 16)).astype(np.float32),
        rng.standard_normal((16, 8)).astype(np.float32),
    )
    before = _energies(accelerator.report, config)
    assert before[0] and before[1] and before[2] > 0.0

    for dtype in DataType:
        EnergyTable.for_config(config.technology_nm, dtype)

    assert _energies(accelerator.report, config) == before
