"""Component base class and activity counters.

The paper's Fig. 4 class diagram gives every microarchitectural component a
``cycle()`` method and lets the top-level ``Accelerator`` advance the
configured components one clock at a time. Here every component prices its
work in closed form instead, and :class:`ClockedComponent` keeps what that
needs: a name, a counter file, the clock the component has reached and the
observability context. The one-clock-at-a-time loop those closed forms must
equal lives with the tests, in ``tests/oracles/clock.py``.
:class:`CounterSet` is the *counter file* backing store: a named multiset of
activity events (multiplications, wire traversals, SRAM accesses, ...) that
the output module later prices with the energy tables.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import (
    TYPE_CHECKING, Any, Dict, ItemsView, Iterator, Mapping, Optional,
    Sequence, TypeVar,
)

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.observability.tracer import NullTracer

#: a size or count: one ``int``, or an int64 column with one entry per
#: delivery / round (the cost formulas read the same for both)
Ints = TypeVar("Ints", int, np.ndarray)


def run_offsets(counts: np.ndarray) -> np.ndarray:
    """Boundaries ``[0, c0, c0 + c1, ...]`` of consecutive runs of a
    concatenated table: run ``i`` owns ``[offsets[i], offsets[i + 1])``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def run_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of ``values`` (empty runs give 0)."""
    sums: np.ndarray = np.diff(run_offsets(values)[offsets])
    return sums


class CounterSet:
    """Named activity counters with dictionary-like access.

    Counters are created lazily on first increment so components do not
    need to pre-declare every event they may emit. Values are plain ints;
    merging two sets adds them key-wise (used to aggregate per-layer stats
    into per-model totals).
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        #: the counts themselves; a snapshot or delta adopts its dict
        self._counts: Dict[str, int] = {} if counts is None else counts

    @classmethod
    def from_counts(cls, counts: Mapping[str, Any]) -> "CounterSet":
        """A set holding ``counts``, each coerced with ``int``: the same
        counters :meth:`add` called once per name would leave (zeros are
        dropped, a negative count raises :class:`ValueError`)."""
        adopted = {
            name: count for name, value in counts.items()
            if (count := int(value))
        }
        if adopted and min(adopted.values()) < 0:
            name, count = next(
                (name, count) for name, count in adopted.items() if count < 0
            )
            raise ValueError(f"cannot add negative activity {count} to {name!r}")
        return cls(adopted)

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"cannot add negative activity {amount} to {name!r}")
        if amount:
            counts = self._counts
            counts[name] = counts.get(name, 0) + int(amount)

    def get(self, name: str) -> int:
        return int(self._counts.get(name, 0))

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def merge(self, other: "CounterSet") -> None:
        counts = self._counts
        for name, value in other._counts.items():
            counts[name] = counts.get(name, 0) + value

    @classmethod
    def union(cls, sets: Sequence["CounterSet"]) -> "CounterSet":
        """One file holding every counter of ``sets``, whose names must be
        disjoint — an accelerator's components each own their names, so
        the union is a dict merge, not a sum. A name in two sets raises
        :class:`~repro.errors.SimulationError`."""
        merged: Dict[str, int] = {}
        size = 0
        for counters in sets:
            merged.update(counters._counts)
            size += len(counters._counts)
        if len(merged) != size:
            owners = Counter(name for counters in sets for name in counters._counts)
            shared = sorted(name for name, count in owners.items() if count > 1)
            raise SimulationError(
                f"counter names {shared} are recorded by more than one "
                "component"
            )
        return cls(merged)

    def diff(self, earlier: "CounterSet") -> "CounterSet":
        """Counters accumulated since the ``earlier`` snapshot."""
        before = earlier._counts
        delta = {
            name: change
            for name, value in self._counts.items()
            if (change := value - before.get(name, 0))
        }
        if delta and min(delta.values()) < 0:
            name = next(name for name, change in delta.items() if change < 0)
            raise ValueError(
                f"counter {name!r} went backwards "
                f"({self._counts[name]} < {earlier.get(name)})"
            )
        return CounterSet(delta)

    def copy(self) -> "CounterSet":
        return CounterSet(dict(self._counts))

    def restricted_to(self, other: "CounterSet") -> "CounterSet":
        """The counters of this set whose names ``other`` records (an
        accelerator's layer counters split by component)."""
        names = other._counts
        return CounterSet({
            name: count for name, count in self._counts.items()
            if name in names
        })

    def scaled(self, factor: int) -> "CounterSet":
        """A copy with every counter multiplied by ``factor``."""
        result = CounterSet()
        for name, value in self._counts.items():
            result.add(name, value * factor)
        return result

    def items(self) -> ItemsView[str, int]:
        """(name, count) pairs in insertion order — unsorted, unlike
        :meth:`as_dict`, for callers that only sum them."""
        return self._counts.items()

    def as_dict(self) -> Dict[str, int]:
        return {name: int(value) for name, value in sorted(self._counts.items())}

    def reset(self) -> None:
        self._counts.clear()

    def __repr__(self) -> str:
        return f"CounterSet({self.as_dict()})"


class ClockedComponent(abc.ABC):
    """A component whose work is priced in closed form.

    Each one advances :attr:`current_cycle` by whole phases of regular
    behaviour at once (a distribution network drains a queue for ``n``
    clocks in one :meth:`~repro.noc.distribution.DistributionNetwork.
    skip_cycles` call), producing exactly the cycles and counters a
    one-clock-at-a-time loop would; ``tests/oracles/clock.py`` is that
    loop.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters = CounterSet()
        self._current_cycle = 0
        # deferred import: repro.observability.context imports this module
        from repro.observability.context import DISABLED

        #: observability context; the Accelerator replaces the shared
        #: disabled default with its own when it adopts the component
        self.obs = DISABLED

    @property
    def tracer(self) -> NullTracer:
        """The attached event tracer (the no-op NullTracer by default)."""
        return self.obs.tracer

    @property
    def current_cycle(self) -> int:
        return self._current_cycle

    def reset(self) -> None:
        """Return to the post-construction state, clearing statistics."""
        self.counters.reset()
        self._current_cycle = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
