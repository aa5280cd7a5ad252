"""Differential suite: the fabric observatory is exact, neutral, engine-agnostic.

The fabric ledger makes the same three falsifiable promises the stall
ledger does, pinned the same way:

1. **consistency** — on every zoo model on every Table IV architecture,
   every charged tier's per-level busy sums equal the layer's aggregate
   NoC counter exactly, and every FIFO's anchored push/pop total equals
   its ``ctrl_fifo_*`` counter;
2. **engine agnosticism** — the ``cycle`` and ``vector`` engines produce
   *byte-identical* fabric payloads (both charge through the same shared
   NoC recording methods with the same aggregate inputs, and per-link
   spreads happen once at finalize, so this is identity by construction,
   verified anyway);
3. **neutrality** — turning the observatory on changes nothing but
   ``extra["fabric"]``: outputs, cycles, counters and (hence) energy
   payloads stay byte-identical, serial and through the parallel runner.
"""

import json

import pytest

from repro.config import EngineMode
from repro.engine.accelerator import Accelerator
from repro.experiments.fig5 import architecture_config
from repro.frontend.models import MODEL_NAMES, build_model, model_input
from repro.frontend.simulated import detach_context, simulate
from repro.observability import Observability
from repro.observability.fabric import FABRIC_TIERS, validate_fabric
from repro.parallel import ParallelModelRunner, SimCache


ZOO_ALL = [
    (model, arch)
    for model in MODEL_NAMES
    for arch in ("tpu", "maeri", "sigma")
]

ZOO_DENSE = [
    (model, arch) for model in MODEL_NAMES for arch in ("tpu", "maeri")
]

#: the neutrality subset: one model per family, all archs
NEUTRALITY_CASES = [
    (model, arch)
    for model in ("squeezenet", "mobilenets", "bert")
    for arch in ("tpu", "maeri", "sigma")
]


def _run(arch, model_name, mode=None, fabric=False):
    config = architecture_config(arch)
    if mode is not None:
        config = config.with_updates(engine_mode=mode)
    obs = Observability.create(fabric=True) if fabric else None
    acc = Accelerator(config, observability=obs)
    model = build_model(model_name, seed=0)
    x = model_input(model_name, batch=1, seed=1)
    simulate(model, acc)
    output = model(x)
    detach_context(model)
    return output, acc.report


def _payloads(report):
    return json.dumps(
        [layer.to_payload() for layer in report.layers], sort_keys=True
    )


def _payloads_without_fabric(report):
    rows = []
    for layer in report.layers:
        payload = layer.to_payload()
        payload["extra"].pop("fabric")
        rows.append(payload)
    return json.dumps(rows, sort_keys=True)


# ---------------------------------------------------------------------------
# consistency: per-level sums reproduce the aggregate counters exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_ALL)
def test_zoo_consistency(model_name, arch):
    _, report = _run(arch, model_name, fabric=True)
    assert report.layers
    charged_layers = 0
    for layer in report.layers:
        fabric = layer.extra.get("fabric")
        assert fabric is not None, f"{layer.name}: no fabric payload"
        problems = validate_fabric(
            fabric, layer.counters.as_dict(), layer.cycles
        )
        assert not problems, f"{layer.name}: {problems}"
        # NoC activity the ledger never saw is flagged, never silent —
        # the full zoo must have none
        assert "uninstrumented" not in fabric, layer.name
        tiers = fabric.get("tiers") or {}
        assert set(tiers) <= set(FABRIC_TIERS)
        if tiers:
            charged_layers += 1
    assert charged_layers, "no layer charged any fabric tier"


# ---------------------------------------------------------------------------
# engine agnosticism: cycle and vector fabric payloads are byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", ZOO_DENSE)
def test_zoo_cycle_vector_fabric_byte_identical(model_name, arch):
    _, ref = _run(arch, model_name, mode=EngineMode.CYCLE, fabric=True)
    _, vec = _run(arch, model_name, mode=EngineMode.VECTOR, fabric=True)
    assert _payloads(vec) == _payloads(ref)


def test_fabric_does_not_force_reference_walk(monkeypatch):
    """The observatory reads no timeline: the GEMM stays one
    class-by-class pass, and the ledger is charged from the same tile
    classes."""
    calls = {"n": 0}
    from repro.engine.systolic import SystolicEngine

    real = SystolicEngine._account_tile_classes

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(
        "repro.engine.systolic.SystolicEngine._account_tile_classes",
        counting,
    )
    _, report = _run("tpu", "squeezenet", mode=EngineMode.VECTOR, fabric=True)
    assert calls["n"] > 0
    assert all("fabric" in l.extra for l in report.layers)


# ---------------------------------------------------------------------------
# neutrality: the observatory on/off leaves everything else byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name,arch", NEUTRALITY_CASES)
def test_fabric_on_off_payloads_byte_identical(model_name, arch):
    off_out, off = _run(arch, model_name, fabric=False)
    on_out, on = _run(arch, model_name, fabric=True)
    assert on_out.tobytes() == off_out.tobytes()
    assert on.total_cycles == off.total_cycles
    assert _payloads_without_fabric(on) == _payloads(off)


def test_parallel_runner_threads_fabric_through_cache(jobs, tmp_path):
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    config = architecture_config("tpu")

    def attributed(cache):
        return ParallelModelRunner(
            config, jobs=jobs, cache=cache,
            observability=Observability.create(fabric=True),
        ).run_model(model, x)

    _, serial = _run("tpu", "squeezenet", fabric=True)
    cold = attributed(SimCache(tmp_path / "cache"))
    assert _payloads(cold.report) == _payloads(serial)
    assert cold.cache_hits == 0 and cold.simulated > 0
    # a new object on the same directory: every hit is read back from
    # disk, so the ledgers survive the JSON round trip byte for byte
    cache = SimCache(tmp_path / "cache")
    warm = attributed(cache)
    assert _payloads(warm.report) == _payloads(serial)
    assert warm.simulated == 0 and warm.cache_hits == warm.layers
    assert warm.report.metadata["parallel_cache_hits"] == \
        warm.report.metadata["parallel_layers"]

    # the lens set is part of the key: a ledger-free run on the same
    # cache replays none of the attributed payloads
    plain = ParallelModelRunner(config, jobs=jobs, cache=cache).run_model(
        model, x
    )
    assert plain.cache_hits == 0 and plain.simulated > 0
    assert all("fabric" not in l.extra for l in plain.report.layers)
    assert _payloads(plain.report) == _payloads(_run("tpu", "squeezenet")[1])
    assert _payloads_without_fabric(warm.report) == _payloads(plain.report)
