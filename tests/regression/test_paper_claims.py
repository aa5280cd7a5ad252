"""Ratchet on the paper-vs-measured numbers.

``paper_claims.json`` holds one entry per
:func:`repro.experiments.claims.claims` number:

- ``value``: ours, pinned exactly (the evaluation is deterministic);
- ``paper`` and ``source``: the paper's value and where it gives it;
- ``best``: the closest to the paper's value ours has been pinned at;
- ``paper_was`` (only where the paper's value was ever edited): the
  value the entry was first pinned against;
- ``why`` (only where needed): the reason ``value`` is farther from the
  paper than ``best``, or the reason the paper's value was edited.

A change that moves a number regenerates the file; a number may move
toward the paper freely, and away from it only when the same change
writes its entry a ``why``. Editing a paper value does not reset the
ratchet: ``best`` stays the closest to the new value ours has been
pinned at, and the entry needs a ``why`` from then on. Regenerate with::

    PYTHONPATH=src python tests/regression/test_paper_claims.py

It writes every ``value``, moves ``best`` only toward the paper, marks an
edited paper value with ``paper_was`` and keeps a ``why`` for as long as
the value stays farther away than ``best`` or the entry has a
``paper_was``. It also rewrites the paper-vs-measured block of
``EXPERIMENTS.md`` (:func:`repro.experiments.claims.render_table`), which
must equal the rendering of the committed pin file.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.claims import (
    BLOCK_BEGIN,
    BLOCK_END,
    Claim,
    claims,
    render_table,
)

PIN_PATH = Path(__file__).with_name("paper_claims.json")
EXPERIMENTS_PATH = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def _gap(value, paper):
    return abs(value - paper)


def splice_block(text, pinned):
    """``text`` with its marked block replaced by the rendering of
    ``pinned``."""
    begin = text.index(BLOCK_BEGIN)
    end = text.index(BLOCK_END, begin) + len(BLOCK_END)
    return text[:begin] + render_table(pinned) + text[end:]


def regenerate(current, pinned):
    """The pin file for ``current`` claims, from the ``pinned`` one."""
    entries = {}
    for claim in current:
        entry = {"value": claim.value, "paper": claim.paper,
                 "source": claim.source}
        old = pinned.get(claim.name)
        best = claim.value
        if old is not None:
            if "paper_was" in old or old["paper"] != claim.paper:
                entry["paper_was"] = old.get("paper_was", old["paper"])
            if _gap(old["best"], claim.paper) < _gap(claim.value, claim.paper):
                best = old["best"]
            if "why" in old and (best != claim.value or "paper_was" in entry):
                entry["why"] = old["why"]
        entry["best"] = best
        entries[claim.name] = entry
    return entries


@pytest.fixture(scope="module")
def current():
    return claims()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN_PATH.read_text())


def test_every_claim_is_pinned_once(current, pinned):
    names = [claim.name for claim in current]
    assert len(set(names)) == len(names)
    assert list(pinned) == names


def test_paper_values_and_sources_are_the_code_s(current, pinned):
    for claim in current:
        entry = pinned[claim.name]
        assert (entry["paper"], entry["source"]) == \
            (claim.paper, claim.source), claim.name


def test_claims_are_pinned_exactly(current, pinned):
    moved = {
        claim.name: (pinned[claim.name]["value"], claim.value)
        for claim in current if claim.value != pinned[claim.name]["value"]
    }
    assert not moved, (
        f"claims moved (pinned, now): {moved}; regenerate paper_claims.json"
    )


def test_claims_only_move_toward_the_paper(pinned):
    away = {
        name: entry for name, entry in pinned.items()
        if _gap(entry["value"], entry["paper"])
        > _gap(entry["best"], entry["paper"]) and not entry.get("why")
    }
    assert not away, (
        f"claims moved away from the paper without a 'why': {away}"
    )


def test_an_edited_paper_value_carries_a_why(pinned):
    quiet = {
        name: entry for name, entry in pinned.items()
        if "paper_was" in entry and not entry.get("why")
    }
    assert not quiet, (
        f"paper values edited without a 'why': {quiet}"
    )


def test_experiments_md_shows_the_pinned_claims(pinned):
    text = EXPERIMENTS_PATH.read_text(encoding="utf-8")
    assert text.count(BLOCK_BEGIN) == text.count(BLOCK_END) == 1
    assert splice_block(text, pinned) == text, (
        "EXPERIMENTS.md's paper-vs-measured block is stale; rerun "
        "PYTHONPATH=src python tests/regression/test_paper_claims.py"
    )


def test_regenerating_keeps_the_ratchet_across_a_paper_edit():
    pinned = {"x": {"value": 2.0, "paper": 1.0, "source": "s", "best": 2.0}}
    # the value moves away; the paper's value is moved after it
    edited = regenerate([Claim("x", 4.0, 2.5, "s")], pinned)["x"]
    assert (edited["paper_was"], edited["best"]) == (1.0, 2.0)
    assert "why" not in edited  # the pin test fails until one is written
    edited["why"] = "reason"
    again = regenerate([Claim("x", 2.5, 2.5, "s")], {"x": edited})["x"]
    assert (again["paper_was"], again["best"], again["why"]) == \
        (1.0, 2.5, "reason")


def test_regenerating_moves_best_only_toward_the_paper():
    pinned = {"x": {"value": 3.0, "paper": 1.0, "source": "s", "best": 2.0,
                    "why": "reason"}}
    closer = regenerate([Claim("x", 1.5, 1.0, "s")], pinned)["x"]
    assert (closer["best"], "why" in closer) == (1.5, False)
    farther = regenerate([Claim("x", 4.0, 1.0, "s")], pinned)["x"]
    assert (farther["best"], farther["why"]) == (2.0, "reason")
    fresh = regenerate([Claim("x", 4.0, 1.0, "s")], {})["x"]
    assert fresh["best"] == fresh["value"] == 4.0


if __name__ == "__main__":
    old = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}
    new = regenerate(claims(), old)
    PIN_PATH.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    EXPERIMENTS_PATH.write_text(
        splice_block(EXPERIMENTS_PATH.read_text(encoding="utf-8"), new),
        encoding="utf-8",
    )
    print(f"wrote {PIN_PATH} and {EXPERIMENTS_PATH}")
