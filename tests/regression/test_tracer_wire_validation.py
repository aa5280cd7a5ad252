"""A malformed trace record is a typed error, not a traceback.

``Tracer.extend`` reads the plain mappings a worker process returns
(``Tracer.to_wire``). A corrupt bundle — a missing key, a cycle that is
not an integer — used to surface as a bare ``KeyError`` / ``ValueError``
/ ``TypeError`` from inside the merge; it must be a
:class:`~repro.errors.SimulationError` that says which record and which
field, so the CLI prints ``error: ...`` and exits 1.
"""

import pytest

from repro.errors import SimulationError
from repro.observability.tracer import Tracer

EVENT = {
    "name": "DN:deliver", "component": "dn", "phase": "X", "start": 4,
    "duration": 16, "depth": 1, "args": {"steps": 2},
}
RUN = {
    "name": "PE:tile", "component": "pe", "start": 3, "period": 5,
    "count": 4, "depth": 1, "args": {"m": 2},
}


def _extend(record):
    tracer = Tracer()
    tracer.extend([EVENT, record], offset=10)
    return tracer


def test_well_formed_records_merge():
    assert len(_extend(EVENT).events) == 2
    assert len(_extend(RUN).events) == 5
    # duration, depth and args are optional, as before
    bare = {k: EVENT[k] for k in ("name", "component", "phase", "start")}
    (_, event) = _extend(bare).events
    assert (event.start, event.duration, event.depth, event.args) == (
        14, 0, 0, {}
    )


@pytest.mark.parametrize("field", ["name", "component", "phase", "start"])
def test_missing_event_field_names_record_and_field(field):
    record = {k: v for k, v in EVENT.items() if k != field}
    with pytest.raises(SimulationError, match=rf"record 1.*'{field}'"):
        _extend(record)


@pytest.mark.parametrize("field", ["name", "component", "start", "period"])
def test_missing_run_field_names_record_and_field(field):
    record = {k: v for k, v in RUN.items() if k != field}
    with pytest.raises(SimulationError, match=rf"record 1.*'{field}'"):
        _extend(record)


@pytest.mark.parametrize("value", ["soon", None, 1.5, [3]])
@pytest.mark.parametrize(
    "record,field",
    [(EVENT, "start"), (EVENT, "duration"), (EVENT, "depth"),
     (RUN, "start"), (RUN, "period"), (RUN, "count")],
)
def test_non_integer_field_names_record_and_field(record, field, value):
    with pytest.raises(SimulationError, match=rf"record 1.*'{field}'"):
        _extend({**record, field: value})


def test_non_mapping_args_is_rejected():
    with pytest.raises(SimulationError, match=r"record 1.*'args'"):
        _extend({**EVENT, "args": 7})


@pytest.mark.parametrize("field", ["period", "count"])
def test_negative_run_is_rejected_on_the_wire_and_at_emission(field):
    with pytest.raises(SimulationError, match=r"record 1.*period=.*count="):
        _extend({**RUN, field: -1})
    with pytest.raises(SimulationError, match="period=.*count="):
        Tracer().span_run("PE:tile", "pe", 0, **{"period": 5, "count": 4, field: -1})


def test_a_failed_merge_keeps_the_records_before_it():
    tracer = Tracer()
    with pytest.raises(SimulationError):
        tracer.extend([EVENT, {"name": "x"}])
    assert [e.name for e in tracer.events] == ["DN:deliver"]
