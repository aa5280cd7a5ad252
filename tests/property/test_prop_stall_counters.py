"""Property tests: the counter universe is closed in both directions.

``KNOWN_COUNTERS`` claims to be *the* universe of activity names, and
the energy model prices from it. That claim has two failure modes — an
engine inventing a name behind the registry's back (a typo'd counter, a
phantom that prices at zero energy), and a registered name nothing ever
increments (dead weight, or a stall bucket no engine charges any more).
Both are pinned here against the real simulator:

- a full zoo × {tpu, maeri, sigma} sweep **with stall attribution and
  the fabric observatory on** must increment only registered names
  (counters, ledger buckets mapped through ``BUCKET_COUNTERS``, fabric
  tiers through ``FABRIC_COUNTERS``/``FIFO_OCCUPANCY_COUNTERS``), and —
  together with one targeted narrow-RN workload for
  ``fifo_backpressure`` — must reach *every* registered name;
- Hypothesis-drawn GEMMs on sampled presets must stay inside the
  universe and keep ledger conservation, whatever the shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import maeri_like, sigma_like, tpu_like
from repro.engine.accelerator import Accelerator
from repro.engine.stats import KNOWN_COUNTERS
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.observability.fabric import (
    FABRIC_COUNTERS,
    FIFO_OCCUPANCY_COUNTERS,
)
from repro.observability.stalls import (
    BUCKET_COUNTERS,
    STALL_BUCKETS,
    validate_ledger,
)

ARCHS = ("tpu", "maeri", "sigma")


def _observed_names(report):
    """Counter names plus ledger/fabric payloads as registered names."""
    names = set()
    for layer in report.layers:
        names |= set(layer.counters.as_dict())
        for buckets in layer.extra.get("stalls", {}).values():
            names |= {BUCKET_COUNTERS[bucket] for bucket in buckets}
        fabric = layer.extra.get("fabric") or {}
        names |= {
            FABRIC_COUNTERS[tier] for tier in fabric.get("tiers", {})
        }
        if fabric.get("fifos"):
            # every FIFO cell carries depth windows and a high-watermark
            names |= set(FIFO_OCCUPANCY_COUNTERS.values())
    return names


@pytest.fixture(scope="module")
def zoo_observed():
    """Every name incremented across the attributed zoo sweep."""
    observed = set()
    for arch in ARCHS:
        for model_name in MODEL_NAMES:
            obs = Observability.create(stalls=True, fabric=True)
            acc = Accelerator(architecture_config(arch), observability=obs)
            model = build_model(model_name, seed=0)
            x = model_input(model_name, batch=1, seed=1)
            simulate(model, acc)
            model(x)
            detach_context(model)
            observed |= _observed_names(acc.report)
    # fifo_backpressure needs a deliberately starved output drain: the
    # Table IV presets are balanced enough that no zoo layer is bound by
    # the psum FIFO, which is itself worth knowing
    rng = np.random.default_rng(7)
    acc = Accelerator(
        maeri_like(num_ms=16, bandwidth=8, rn_bandwidth=1),
        observability=Observability.create(stalls=True),
    )
    acc.run_gemm(
        rng.standard_normal((16, 4)).astype(np.float32),
        rng.standard_normal((4, 16)).astype(np.float32),
    )
    observed |= _observed_names(acc.report)
    return observed


def test_sweep_increments_only_registered_names(zoo_observed):
    phantom = zoo_observed - set(KNOWN_COUNTERS)
    assert not phantom, f"unregistered counter(s) incremented: {sorted(phantom)}"


def test_every_registered_name_is_reachable(zoo_observed):
    dead = set(KNOWN_COUNTERS) - zoo_observed
    assert not dead, f"registered but never incremented: {sorted(dead)}"


# ---------------------------------------------------------------------------
# Hypothesis: arbitrary GEMM shapes stay inside the universe, conserved
# ---------------------------------------------------------------------------

_PRESETS = {
    "tpu16": lambda: tpu_like(num_pes=16),
    "maeri16": lambda: maeri_like(num_ms=16, bandwidth=8),
    "maeri16-rn1": lambda: maeri_like(num_ms=16, bandwidth=8, rn_bandwidth=1),
    "sigma16": lambda: sigma_like(num_ms=16, bandwidth=8),
}


@st.composite
def gemm_cases(draw):
    m = draw(st.integers(1, 48))
    k = draw(st.integers(1, 32))
    n = draw(st.integers(1, 48))
    preset = draw(st.sampled_from(sorted(_PRESETS)))
    seed = draw(st.integers(0, 2**16))
    return m, k, n, preset, seed


@given(gemm_cases())
@settings(max_examples=30, deadline=None)
def test_random_gemm_universe_and_conservation(case):
    m, k, n, preset, seed = case
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    acc = Accelerator(
        _PRESETS[preset](), observability=Observability.create(stalls=True)
    )
    acc.run_gemm(a, b)
    (layer,) = acc.report.layers
    assert set(layer.counters.as_dict()) <= set(KNOWN_COUNTERS)
    stalls = layer.extra["stalls"]
    assert not validate_ledger(stalls, layer.cycles)
    for buckets in stalls.values():
        assert set(buckets) <= set(STALL_BUCKETS)
