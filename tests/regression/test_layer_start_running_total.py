"""A layer starts where the report's running total says, without a re-sum.

``Accelerator._start_layer`` places each layer on the cycle timeline at
``report.total_cycles``. That total used to re-sum every earlier layer
at each layer start, so a run of L layers cost O(L^2); the report now
keeps a running total where layers are appended. Here the layer list
refuses iteration while the layers are timed: a start that walks the
earlier layers fails, and the bases must still be the prefix sums.
"""

from itertools import accumulate

import numpy as np

from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.engine.stats import LayerReport, SimulationReport
from repro.noc.base import CounterSet


class _NoWalk(list):
    """A layer list that raises when anything iterates it while armed."""

    armed = True

    def __iter__(self):
        if self.armed:
            raise AssertionError("the layer list was walked inside time()")
        return super().__iter__()


def test_layer_bases_are_prefix_sums_without_walking_the_layers():
    acc = Accelerator(maeri_like(num_ms=16, bandwidth=8))
    acc.report.layers = layers = _NoWalk()
    bases = []
    start_layer = acc.obs.start_layer

    def record(base_cycle):
        bases.append(base_cycle)
        start_layer(base_cycle)

    acc.obs.start_layer = record
    rng = np.random.default_rng(0)
    for index in range(400):
        side = 2 + index % 7
        x = rng.standard_normal((1, 1 + index % 3, side, side))
        acc.run_maxpool(x.astype(np.float32), pool=2, name=f"pool{index}")
    layers.armed = False

    cycles = [layer.cycles for layer in acc.report.layers]
    assert len(cycles) == 400 and len(set(cycles)) > 1
    assert bases == list(accumulate([0] + cycles[:-1]))
    assert acc.report.total_cycles == sum(cycles)


def test_total_cycles_is_the_sum_of_appended_layers():
    report = SimulationReport(maeri_like(num_ms=16, bandwidth=8))
    assert report.total_cycles == 0
    for cycles in (7, 0, 35, 1):
        report.append(LayerReport(
            name="layer", kind="maxpool", cycles=cycles, macs=0, outputs=0,
            multiplier_utilization=0.0, counters=CounterSet(),
        ))
    assert report.total_cycles == 43
    assert [row["start_cycle"] for row in report.timeline()] == [0, 7, 7, 42]
