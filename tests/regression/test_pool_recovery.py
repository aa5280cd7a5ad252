"""Regressions at the pool boundary of ``ParallelModelRunner``.

- A shared pool whose worker died was kept in ``_POOLS`` for good: the
  run that saw the death fell back layer by layer (fine), and so did
  every later run of the process (``fallbacks == layers``, silently).
- ``jobs`` reached ``ProcessPoolExecutor`` unvalidated: ``jobs=2.5`` died
  with a ``TypeError`` from inside ``concurrent.futures`` and ``jobs="2"``
  from ``max``, both only after the whole record pass had run.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import StonneInstance
from repro.config import maeri_like
from repro.engine.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.frontend.layers import Conv2d, Flatten, Linear, MaxPool2d
from repro.frontend.module import Module, Sequential
from repro.frontend.simulated import simulate_parallel
from repro.parallel import ParallelModelRunner
from repro.parallel import runner as runner_module

CONFIG = maeri_like(num_ms=32, bandwidth=8)


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(2, 4, 3, padding=1, name="c1", rng=rng),
        MaxPool2d(2, name="p1"),
        Conv2d(4, 4, 3, name="c2", rng=rng),
        Flatten(),
        Linear(4 * 2 * 2, 10, name="fc", rng=rng),
    )


def _tiny_input(seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((1, 2, 8, 8)).astype(np.float32)


def _payloads(result):
    return [layer.to_payload() for layer in result.report.layers]


# ---- a broken shared pool is replaced ----------------------------------
def _kill_workers(pool):
    """SIGKILL every worker and wait until the executor has noticed."""
    pids = list(pool._processes)
    assert pids, "the pool never started a worker"
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken, "the executor never noticed its dead workers"


def test_a_pool_with_dead_workers_is_replaced(jobs):
    workers = max(jobs or 2, 2)  # `--jobs N` sizes the pool; never serial
    model, x = _tiny_model(), _tiny_input()
    serial = ParallelModelRunner(CONFIG, jobs=1).run_model(model, x)

    def pooled_run():
        return ParallelModelRunner(CONFIG, jobs=workers).run_model(model, x)

    healthy = pooled_run()
    assert healthy.fallbacks == 0
    doomed = runner_module._POOLS[workers]
    _kill_workers(doomed)

    # the run that sees the death completes, layer by layer in-process
    survivor = pooled_run()
    assert survivor.fallbacks == survivor.simulated == survivor.layers
    assert np.array_equal(survivor.output, serial.output)
    assert _payloads(survivor) == _payloads(serial)
    assert runner_module._POOLS.get(workers) is not doomed

    # ... and the run after it has a working pool again
    recovered = pooled_run()
    assert recovered.fallbacks == 0
    assert _payloads(recovered) == _payloads(serial)
    assert runner_module._POOLS[workers] is not doomed


# ---- jobs is validated before anything runs ----------------------------
class _PoisonedModel(Module):
    def forward(self, x):
        raise AssertionError("the record pass ran before jobs was checked")


@pytest.mark.parametrize("jobs", [2.5, "2", [2], 2.0])
def test_non_integer_jobs_is_a_configuration_error(jobs):
    model, x = _PoisonedModel(), _tiny_input()
    with pytest.raises(ConfigurationError, match="jobs") as raised:
        ParallelModelRunner(CONFIG, jobs=jobs).run_model(model, x)
    assert repr(jobs) in str(raised.value)
    with pytest.raises(ConfigurationError, match="jobs"):
        simulate_parallel(model, Accelerator(CONFIG), x, jobs=jobs)
    with pytest.raises(ConfigurationError, match="jobs"):
        StonneInstance(CONFIG).run_model(model, x, jobs=jobs)


def test_integer_like_jobs_are_accepted():
    assert ParallelModelRunner(CONFIG, jobs=np.int64(3)).jobs == 3
    assert type(ParallelModelRunner(CONFIG, jobs=np.int64(3)).jobs) is int
    assert ParallelModelRunner(CONFIG, jobs=None).jobs == (os.cpu_count() or 1)
    assert ParallelModelRunner(CONFIG, jobs=0).jobs == 1
    assert ParallelModelRunner(CONFIG, jobs=-3).jobs == 1
