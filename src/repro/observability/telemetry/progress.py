"""Live progress streaming for model runs and sweeps.

A :class:`ProgressEmitter` turns per-layer completion callbacks from the
parallel runner into three user-facing surfaces:

- a ``--live`` TTY renderer (single status line rewritten in place);
- plain per-layer lines when the stream is not a terminal (CI logs,
  ``| tee``), so piping ``--live`` output never emits control codes;
- an optional JSONL event stream (``model_start`` / ``layer_done`` /
  ``model_end`` events) for future simulation-as-a-service clients.

ETA comes from :class:`EtaEstimator`: the run registry keeps wall-clock
seconds for past runs of the same (workload, config-hash) pair, so the
first layers of a fresh run can already show a history-based estimate,
blended toward the observed rate as layers complete. The emitter is a
pure observer — it reads completion events and never touches payloads.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, IO, List, Optional, Union


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class EtaEstimator:
    """Blends registry history with the observed per-layer rate."""

    def __init__(self, history_wall_s: Optional[List[float]] = None) -> None:
        self.history_wall_s = [
            float(v) for v in (history_wall_s or []) if v and v > 0
        ]

    @classmethod
    def from_registry(
        cls,
        registry_path: Optional[Union[str, Path]],
        workload: str,
        config_hash: str,
        limit: int = 10,
    ) -> "EtaEstimator":
        """History from past non-cached runs of the same config hash.

        Any registry problem (missing directory, locked or corrupt
        database) degrades to an empty history — progress still renders,
        just without an upfront ETA.
        """
        import sqlite3

        from repro.observability.registry import RunRegistry

        samples: List[float] = []
        try:
            with RunRegistry(registry_path) as registry:
                for record in registry.list_runs(
                    workload=workload, config_hash=config_hash, limit=limit
                ):
                    if record.cached or record.wall_clock_s is None:
                        continue
                    samples.append(float(record.wall_clock_s))
        except (OSError, ValueError, sqlite3.Error):
            # degraded mode: no history, no upfront ETA — never sink a run
            return cls([])
        return cls(samples)

    def estimate(
        self, done: int, total: int, elapsed_s: float
    ) -> Optional[float]:
        """Estimated remaining seconds, or ``None`` with no basis."""
        if total <= 0 or done >= total:
            return 0.0 if total > 0 else None
        history = _median(self.history_wall_s) if self.history_wall_s else None
        if done <= 0:
            return history
        rate_eta = (elapsed_s / done) * (total - done)
        if history is None:
            return rate_eta
        frac = done / total
        history_eta = max(history - elapsed_s, 0.0)
        return frac * rate_eta + (1.0 - frac) * history_eta


def _format_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "--:--"
    seconds = max(int(round(eta_s)), 0)
    if seconds >= 3600:
        return f"{seconds // 3600}:{(seconds % 3600) // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


class ProgressEmitter:
    """Streams per-layer progress to a TTY, plain lines, and/or JSONL.

    Thread-safe, so any thread may fire ``layer_done``. ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        workload: str,
        total: int,
        stream: Optional[IO[str]] = None,
        live: bool = False,
        jsonl_path: Optional[Union[str, Path]] = None,
        eta: Optional[EtaEstimator] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.workload = workload
        self.total = int(total)
        self.stream = stream
        self.live = live
        self.eta = eta if eta is not None else EtaEstimator()
        self.clock = clock
        self.done = 0
        self._lock = threading.Lock()
        self._start = self.clock()
        self._tty = bool(
            live and stream is not None
            and getattr(stream, "isatty", lambda: False)()
        )
        self._jsonl: Optional[IO[str]] = None
        if jsonl_path is not None:
            path = Path(jsonl_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._jsonl = path.open("w", encoding="utf-8")

    # ---- events --------------------------------------------------------
    def model_start(self) -> None:
        with self._lock:
            self._start = self.clock()
            self._emit_event({
                "event": "model_start",
                "workload": self.workload,
                "total": self.total,
            })
            if self.stream is not None and not self._tty:
                self.stream.write(
                    f"[{self.workload}] simulating {self.total} layers\n"
                )
                self.stream.flush()

    def layer_done(
        self, index: int, name: str, kind: str, mode: str
    ) -> None:
        """One layer finished; ``mode`` is simulated/cached/deduplicated."""
        with self._lock:
            self.done += 1
            elapsed = self.clock() - self._start
            eta_s = self.eta.estimate(self.done, self.total, elapsed)
            self._emit_event({
                "event": "layer_done",
                "workload": self.workload,
                "index": index,
                "layer": name,
                "kind": kind,
                "mode": mode,
                "done": self.done,
                "total": self.total,
                "elapsed_s": round(elapsed, 4),
                "eta_s": round(eta_s, 4) if eta_s is not None else None,
            })
            if self.stream is None:
                return
            if self._tty:
                line = (
                    f"\r[{self.workload}] {self.done}/{self.total} "
                    f"{name} ({mode})  elapsed {elapsed:.1f}s  "
                    f"eta {_format_eta(eta_s)}   "
                )
                self.stream.write(line)
            else:
                self.stream.write(
                    f"[{self.workload}] {self.done}/{self.total} "
                    f"{name} ({mode}) elapsed={elapsed:.1f}s "
                    f"eta={_format_eta(eta_s)}\n"
                )
            self.stream.flush()

    def model_end(self) -> None:
        with self._lock:
            elapsed = self.clock() - self._start
            self._emit_event({
                "event": "model_end",
                "workload": self.workload,
                "done": self.done,
                "total": self.total,
                "elapsed_s": round(elapsed, 4),
            })
            if self.stream is not None:
                if self._tty:
                    self.stream.write("\n")
                self.stream.write(
                    f"[{self.workload}] done: {self.done}/{self.total} "
                    f"layers in {elapsed:.1f}s\n"
                )
                self.stream.flush()
            if self._jsonl is not None:
                self._jsonl.close()
                self._jsonl = None

    # ---- plumbing ------------------------------------------------------
    def _emit_event(self, event: Dict[str, object]) -> None:
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(event, sort_keys=True) + "\n")
            self._jsonl.flush()

    def close(self) -> None:
        with self._lock:
            if self._jsonl is not None:
                self._jsonl.close()
                self._jsonl = None
