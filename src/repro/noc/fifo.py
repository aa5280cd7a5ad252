"""Bounded FIFO with occupancy statistics.

FIFOs decouple the network tiers (GB→DN, DN→MN, MN→RN, RN→GB). The
output module reports their push/pop activity ("activity counts of
different components such as wires, FIFOs or SRAM usage") and peak
occupancy, and the engines use fullness for backpressure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError


class Fifo:
    """A depth-bounded queue that counts pushes, pops and peak occupancy."""

    def __init__(self, name: str, depth: int) -> None:
        if depth < 1:
            raise SimulationError(f"FIFO {name!r} needs depth >= 1, got {depth}")
        self.name = name
        self.depth = depth
        self._items: Deque[Any] = deque()
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.depth

    @property
    def is_empty(self) -> bool:
        return not self._items

    def push(self, item: Any) -> None:
        if self.is_full:
            raise SimulationError(
                f"push to full FIFO {self.name!r} (depth {self.depth}); the "
                "producer must respect backpressure"
            )
        self._items.append(item)
        self.pushes += 1
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)

    def pop(self) -> Any:
        if self.is_empty:
            raise SimulationError(f"pop from empty FIFO {self.name!r}")
        self.pops += 1
        return self._items.popleft()

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None

    def reset(self) -> None:
        self._items.clear()
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0

    def __repr__(self) -> str:
        return (
            f"Fifo(name={self.name!r}, depth={self.depth}, "
            f"occupancy={len(self._items)})"
        )
