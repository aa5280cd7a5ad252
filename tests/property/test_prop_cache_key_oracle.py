"""Property tests: cache keys and config digests against their oracles.

``SimCache.key`` writes a key out from a hashable signature of the
workload, ``SimCache.keys_of`` writes each distinct signature of a run
once, and ``config_hash`` reads a digest stored on the config object;
all must give the bytes the builders below give. The oracles are the
key builder and the config digest as they stood before either was
rewritten, kept verbatim: the JSON text ``json.dumps(record, sort_keys=True)`` of
the record, ``str`` of each operand dtype, ``dataclasses.asdict`` of a
tile and a SHA-256 over the whole config on every call. A cache entry
written under an oracle key in the stored-record format must be a hit,
and an entry ``put`` writes must be byte for byte that format.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TileConfig, maeri_like, tpu_like
from repro.engine.workload import OperandSpec
from repro.frontend.models import build_model, model_input
from repro.observability import provenance
from repro.observability.provenance import config_digest_source, config_hash
from repro.parallel import (
    CACHE_SCHEMA_VERSION,
    LayerWorkload,
    ParallelModelRunner,
    SimCache,
    canonical_key,
    canonical_key_source,
    record_model,
)
from repro.parallel import cache as cache_module
from repro.parallel.cache import cacheable
from repro.tensors.sparse import BitmapMatrix, CsrMatrix


# ---- the oracles -------------------------------------------------------
_ORACLE_KEY_PARAMS = {
    "conv": ("stride", "padding", "groups", "tile"),
    "gemm": ("tile",),
    "maxpool": ("pool", "stride"),
}
_ORACLE_PAYLOAD_LENSES = ("fabric", "stalls")


def _oracle_config_hash(config):
    return hashlib.sha256(
        config_digest_source(config).encode("utf-8")
    ).hexdigest()[:16]


def _oracle_spec(operand):
    if isinstance(operand, OperandSpec):
        return operand
    if isinstance(operand, (BitmapMatrix, CsrMatrix)):
        return OperandSpec(tuple(operand.shape), str(operand.values.dtype))
    array = np.asarray(operand)
    return OperandSpec(tuple(array.shape), str(array.dtype))


def _oracle_jsonable_param(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    raise TypeError(
        f"cache key parameter of type {type(value).__name__} is not canonical"
    )


def oracle_key_source(workload, config, lenses=None):
    if not cacheable(workload, config):
        raise ValueError(
            f"workload {workload.name!r} ({workload.kind}) is data-dependent "
            "and has no cache key"
        )
    operands = {}
    for key in sorted(workload.operands):
        spec = _oracle_spec(workload.operands[key])
        operands[key] = {"shape": list(spec.shape), "dtype": spec.dtype}
    record = {
        "schema": CACHE_SCHEMA_VERSION,
        "config": _oracle_config_hash(config),
        "kind": workload.kind,
        "operands": operands,
        "params": {
            name: _oracle_jsonable_param(workload.params.get(name))
            for name in _ORACLE_KEY_PARAMS[workload.kind]
        },
    }
    ledgers = [name for name in _ORACLE_PAYLOAD_LENSES
               if (lenses or {}).get(name)]
    if ledgers:
        record["lenses"] = ledgers
    return json.dumps(record, sort_keys=True)


def oracle_key(workload, config, lenses=None):
    return hashlib.sha256(
        oracle_key_source(workload, config, lenses).encode("utf-8")
    ).hexdigest()


def oracle_entry_text(key, config, payload):
    """An entry file as ``SimCache.put`` wrote it before any of this."""
    return json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "config_hash": _oracle_config_hash(config),
        "key": key,
        "payload": payload,
    }, sort_keys=True)


# ---- strategies --------------------------------------------------------
class _Two(enum.IntEnum):
    """An int subclass: JSON writes it as its int value."""
    TWO = 2


dims = st.integers(1, 9)
dtypes = st.sampled_from([np.float16, np.float32, np.float64])
tiles = st.one_of(
    st.none(),
    # TileConfig takes True for 1 and an IntEnum for 2; the key text
    # tells 1 and True apart
    st.builds(TileConfig, t_k=st.sampled_from([1, 2, True, _Two.TWO]),
              t_n=st.integers(1, 4), t_c=st.integers(1, 3)),
)
#: values a key parameter may hold, including the ones whose equality
#: disagrees with their key text (True == 1, -0.0 == 0.0), the floats
#: JSON spells out (NaN, Infinity), subclasses of int / float / str,
#: non-ASCII strings and NumPy integers, which the key refuses
SPECIAL_VALUES = [
    0.0, -0.0, 1.0, 1.5, float("inf"), float("-inf"), float("nan"),
    _Two.TWO, np.float64(2.5), np.str_("same"), "caf\u00e9", 'a"b\\',
]
params = st.one_of(
    st.integers(0, 3), st.booleans(), st.none(),
    st.sampled_from(SPECIAL_VALUES),
    st.text(max_size=3),
    st.builds(np.int64, st.integers(0, 3)),
    tiles,
)
lens_sets = st.dictionaries(
    st.sampled_from(["trace", "metrics_every", "stalls", "fabric"]),
    st.one_of(st.booleans(), st.integers(0, 64)),
)
configs = st.sampled_from([
    tpu_like(num_pes=16), tpu_like(num_pes=64),
    maeri_like(num_ms=32, bandwidth=8), maeri_like(num_ms=64, bandwidth=16),
])


_PARAM_NAMES = {"conv": ("stride", "padding", "groups", "tile"),
                "gemm": ("tile",), "maxpool": ("pool", "stride")}


@st.composite
def workloads(draw, kind=None, dtype=None, shapes=None):
    kind = kind or draw(st.sampled_from(["conv", "gemm", "maxpool"]))
    dtype = dtype or draw(dtypes)
    if shapes is None:
        if kind == "gemm":
            shapes = {"weights": (draw(dims), draw(dims)),
                      "inputs": (draw(dims), draw(dims))}
        else:
            shapes = {"inputs": tuple(draw(dims) for _ in range(4))}
            if kind == "conv":
                shapes["weights"] = tuple(draw(dims) for _ in range(4))
    operands = {
        name: np.zeros(shape, dtype=dtype) for name, shape in shapes.items()
    }
    chosen = {name: draw(params) for name in _PARAM_NAMES[kind]
              if draw(st.booleans())}
    workload = LayerWorkload(
        index=draw(st.integers(0, 50)), kind=kind,
        name=draw(st.sampled_from(["a", "b", "layer"])),
        params={"round_builder": object(), **chosen}, operands=operands,
    )
    return workload.timing_view() if draw(st.booleans()) else workload


#: values equal to each other (so hashing alike), most of whose key texts
#: differ
ALIASES = [
    [1, True, 1.0],
    [0, False, 0.0, -0.0],
    [2, _Two.TWO, 2.0, np.float64(2.0)],
    [TileConfig(t_k=1), TileConfig(t_k=True)],
]


@st.composite
def neighbours(draw):
    """One workload per member of an alias group, identical but for one
    key parameter: where a signature could alias two key texts."""
    base = draw(workloads())
    name = draw(st.sampled_from(_PARAM_NAMES[base.kind]))
    group = draw(st.sampled_from(ALIASES))
    return [
        LayerWorkload(index=base.index, kind=base.kind, name=base.name,
                      params={**base.params, name: value},
                      operands=base.operands)
        for value in draw(st.permutations(group))
    ]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TypeError as error:
        return "TypeError", str(error)


# ---- keys --------------------------------------------------------------
@pytest.mark.parametrize("value", SPECIAL_VALUES + [True, None, 7],
                         ids=repr)
def test_each_special_parameter_value_keys_as_the_oracle(value):
    # every way the key writes a scalar, whatever the draws reach
    workload = LayerWorkload(
        index=0, kind="maxpool", name="pool", params={"pool": value},
        operands={"inputs": np.zeros((1, 2, 3, 3), dtype=np.float32)},
    )
    config = tpu_like(num_pes=16)
    assert canonical_key_source(workload, config) == \
        oracle_key_source(workload, config)


@given(st.one_of(workloads().map(lambda w: [w]), neighbours()), configs,
       lens_sets)
@settings(max_examples=300, deadline=None)
def test_key_and_source_are_the_oracles_bytes(cases, config, lenses):
    # several keys per example through one SimCache.keys_of call: a
    # signature that aliased two different key texts would hand one
    # workload the other's key
    expected = [_outcome(oracle_key_source, w, config, lenses) for w in cases]
    for workload, (outcome, source) in zip(cases, expected):
        assert _outcome(canonical_key_source, workload, config,
                        lenses) == (outcome, source)
        if outcome == "ok":
            digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            assert SimCache.key(workload, config, lenses) == digest
            assert canonical_key(workload, config, lenses) == digest
        else:
            with pytest.raises(TypeError):
                SimCache.key(workload, config, lenses)
    if all(outcome == "ok" for outcome, _ in expected):
        assert SimCache.keys_of(cases + cases, config, lenses) == [
            hashlib.sha256(source.encode("utf-8")).hexdigest()
            for _, source in expected + expected
        ]


@given(workloads(), configs, lens_sets)
@settings(max_examples=60, deadline=None)
def test_entry_under_the_oracle_key_is_a_hit(tmp_path_factory, workload,
                                             config, lenses):
    try:
        key = oracle_key(workload, config, lenses)
    except TypeError:
        return
    directory = tmp_path_factory.mktemp("cache")
    payload = {
        "name": workload.name, "kind": workload.kind, "cycles": 11,
        "macs": 40, "outputs": 8, "multiplier_utilization": 0.25,
        "counters": {"gb_reads": 5}, "extra": {},
    }
    shard = directory / f"v{CACHE_SCHEMA_VERSION}" / _oracle_config_hash(config)
    shard.mkdir(parents=True)
    text = oracle_entry_text(key, config, payload)
    (shard / f"{key}.json").write_text(text, encoding="utf-8")

    reader = SimCache(directory)
    assert reader.get(SimCache.key(workload, config, lenses), config) == payload
    assert (reader.hits, reader.misses) == (1, 0)

    # and the reverse: what put writes is the stored-record format, byte
    # for byte, with the bytes accounted
    other = tmp_path_factory.mktemp("cache")
    writer = SimCache(other)
    writer.put(key, payload, config)
    written = other / f"v{CACHE_SCHEMA_VERSION}" / \
        _oracle_config_hash(config) / f"{key}.json"
    assert written.read_text(encoding="utf-8") == text
    assert writer.disk_bytes() == len(text.encode("utf-8"))


# ---- config digests ----------------------------------------------------
@given(configs, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_config_hash_is_the_oracle_digest(config, bandwidth):
    assert config_hash(config) == _oracle_config_hash(config)
    assert config_hash(config) == _oracle_config_hash(config)
    # a copy is a new object and digests its own fields
    changed = config.with_updates(dn_bandwidth=bandwidth)
    assert config_hash(changed) == _oracle_config_hash(changed)
    # the stored digest is no field: equality and hashing ignore it
    fresh = dataclasses.replace(config)
    assert fresh == config and hash(fresh) == hash(config)
    assert dataclasses.asdict(fresh) == dataclasses.asdict(config)


# ---- the poison test ---------------------------------------------------
def test_a_warm_run_digests_its_config_once_and_keys_each_shape_once(
    tmp_path, monkeypatch
):
    """squeezenet repeats its fire-module shapes: over a fully warm run,
    the config is digested exactly once, later lookups read the digest
    stored on it, and one key is rendered per distinct signature however
    many layers share it."""
    model = build_model("squeezenet", seed=0)
    x = model_input("squeezenet", batch=1, seed=1)
    ParallelModelRunner(tpu_like(num_pes=16), jobs=1,
                        cache=SimCache(tmp_path)).run_model(model, x)

    config = tpu_like(num_pes=16)  # a new object: no digest stored yet
    _, recorded = record_model(model, x, config)
    distinct = {oracle_key_source(w, config) for w in recorded}
    assert len(distinct) < len(recorded)

    digests, rendered = [], []
    source, render = provenance.config_digest_source, cache_module._render
    monkeypatch.setattr(provenance, "config_digest_source",
                        lambda c: digests.append(c) or source(c))
    monkeypatch.setattr(cache_module, "_render",
                        lambda s: rendered.append(s) or render(s))
    # the equal config digested by the cold run must not be found again
    provenance._digest.cache_clear()

    result = ParallelModelRunner(config, jobs=1,
                                 cache=SimCache(tmp_path)).run_model(model, x)
    assert result.simulated == 0
    assert result.cache_hits == len(recorded)
    assert len(digests) == 1 and digests[0] is config
    assert len(rendered) == len(distinct)

    # later lookups read the digest stored on the object
    provenance._digest.cache_clear()
    assert config_hash(config) == _oracle_config_hash(config)
    assert len(digests) == 1
