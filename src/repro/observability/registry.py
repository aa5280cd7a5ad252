"""Durable run registry: every simulation leaves a record to diff against.

The telemetry the other observability instruments collect evaporates
when the process exits — there is no way to ask "did this mapping get
slower since last week?" or "which of my sweep runs produced that
utilization anomaly?". :class:`RunRegistry` closes that gap: runs append
a durable :class:`RunRecord` — provenance, config hash, per-layer
cycles/counters/energy, wall-clock, metrics summary — to a SQLite store
under ``~/.stonne_runs/`` (override with the ``STONNE_RUNS_DIR``
environment variable or an explicit path).

Registration is an *observer*: it reads the finished
:class:`~repro.engine.stats.SimulationReport` and never touches the
simulation, so registered runs stay byte-identical to unregistered ones.
Recording surfaces:

- the CLI records every ``conv`` / ``gemm`` / ``model`` / ``experiment``
  run by default (``--no-registry`` opts out, ``STONNE_REGISTRY=0``
  disables globally);
- :meth:`repro.api.StonneInstance.register_run` records API-driven runs
  (``STONNE_REGISTRY=1`` makes ``run_model`` record automatically);
- a per-layer simulation of the model runner never opens a registry —
  only its driver records, once, after the merged report exists.

Cross-run analysis (diff, regression gating, stall attribution, HTML
reports) lives in :mod:`repro.observability.insight`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.observability.telemetry.facade import telemetry

#: bump when the stored record payload changes shape
#: (2: per-layer stall-attribution ledgers persisted as layer["stalls"];
#:  3: per-layer fabric-observatory ledgers persisted as layer["fabric"])
#: Readers must stay backward compatible: payloads are plain JSON and
#: older records simply lack the newer per-layer keys, so every consumer
#: treats layer["stalls"] / layer["fabric"] as optional.
SCHEMA_VERSION = 3

#: The committed shape of what :meth:`RunRecord.from_report` persists,
#: per schema version: the top-level payload keys and the per-layer row
#: keys. Append-only history — every version ever shipped keeps its
#: entry so readers know what a stored record of that vintage contains.
#: ``tests/unit/test_registry.py`` builds a real record with every lens
#: on and holds its keys to the entry for SCHEMA_VERSION: changing what
#: gets persisted without bumping the version (and appending here) fails
#: that test before it can corrupt a single store.
REGISTRY_SCHEMA_MANIFEST: Dict[int, Dict[str, List[str]]] = {
    1: {
        "payload": ["config", "layers", "metadata", "metrics", "schema",
                    "totals", "utilization", "workload"],
        "layer": ["counters", "cycles", "energy_total_uj", "kind", "macs",
                  "multiplier_utilization", "name", "outputs"],
    },
    2: {
        "payload": ["config", "extra", "layers", "metadata", "metrics",
                    "schema", "totals", "utilization", "workload"],
        "layer": ["counters", "cycles", "energy_total_uj", "kind", "macs",
                  "multiplier_utilization", "name", "outputs", "stalls"],
    },
    3: {
        "payload": ["config", "extra", "layers", "metadata", "metrics",
                    "schema", "totals", "utilization", "workload"],
        "layer": ["counters", "cycles", "energy_total_uj", "fabric", "kind",
                  "macs", "multiplier_utilization", "name", "outputs",
                  "stalls"],
    },
}

#: environment override for the registry directory
RUNS_DIR_ENV = "STONNE_RUNS_DIR"

#: environment force-switch: "0" disables all recording, "1" also turns
#: on automatic API-level recording
REGISTRY_ENV = "STONNE_REGISTRY"

_DB_NAME = "registry.sqlite3"
_FALSEY = {"0", "false", "no", "off", ""}


def default_registry_dir() -> Path:
    """The registry directory honoring ``STONNE_RUNS_DIR``."""
    override = os.environ.get(RUNS_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".stonne_runs"


def registry_enabled(default: bool = False) -> bool:
    """Resolve the ``STONNE_REGISTRY`` switch against a surface default."""
    value = os.environ.get(REGISTRY_ENV)
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY


@dataclass(frozen=True)
class RunRecord:
    """One registered run: indexed headline columns + the full payload."""

    run_id: str
    created_utc: str
    workload: str
    source: str
    config_name: str
    config_hash: str
    total_cycles: int
    total_macs: int
    energy_total_uj: float
    wall_clock_s: Optional[float]
    cached: bool
    payload: Dict

    @property
    def layers(self) -> List[Dict]:
        return list(self.payload.get("layers", []))

    @property
    def schema(self) -> int:
        """Payload schema version; pre-versioning records read as 1."""
        try:
            return int(self.payload.get("schema", 1))
        except (TypeError, ValueError):
            return 1

    def as_dict(self) -> Dict:
        return {
            "run_id": self.run_id,
            "created_utc": self.created_utc,
            "workload": self.workload,
            "source": self.source,
            "config_name": self.config_name,
            "config_hash": self.config_hash,
            "total_cycles": self.total_cycles,
            "total_macs": self.total_macs,
            "energy_total_uj": self.energy_total_uj,
            "wall_clock_s": self.wall_clock_s,
            "cached": self.cached,
            **{k: v for k, v in self.payload.items() if k != "workload"},
        }

    @classmethod
    def from_report(
        cls,
        report,
        workload: str,
        source: str = "api",
        wall_clock_s: Optional[float] = None,
        cached: bool = False,
        metrics: Optional[Mapping[str, float]] = None,
        extra: Optional[Mapping[str, object]] = None,
    ) -> "RunRecord":
        """Build a record from a :class:`SimulationReport`.

        ``metrics`` is a :meth:`MetricsRecorder.summary` mapping when the
        run sampled a counter time series; ``cached`` marks runs whose
        layers were all replayed from the simulation cache (they still
        register — the cycles are real, only the wall-clock is not
        comparable).
        """
        config = report.config
        energy = report.total_energy()
        layers = []
        for layer in report.layers:
            row = layer.to_payload()
            extra_blob = row.pop("extra", None) or {}
            # traces/metrics do not belong in the DB, but the compact
            # stall ledger does — it is what `insight explain` reads
            stalls = extra_blob.get("stalls")
            if stalls is not None:
                row["stalls"] = stalls
            fabric = extra_blob.get("fabric")
            if fabric is not None:
                row["fabric"] = fabric
            row["energy_total_uj"] = round(layer.energy(config).total_uj, 6)
            layers.append(row)
        payload: Dict = {
            "schema": SCHEMA_VERSION,
            "workload": workload,
            "metadata": dict(report.metadata),
            "config": {
                "name": config.name,
                "num_ms": config.num_ms,
                "dn_bandwidth": config.dn_bandwidth,
                "rn_bandwidth": config.rn_bandwidth,
                "clock_ghz": config.clock_ghz,
                "dtype": config.dtype.value,
                "controller": config.controller.value,
                "dram_bandwidth_gbps": config.dram.bandwidth_gbps,
            },
            "totals": {
                "cycles": report.total_cycles,
                "macs": report.total_macs,
                "runtime_us": report.total_cycles / (config.clock_ghz * 1e3),
                "energy_total_uj": round(energy.total_uj, 6),
            },
            "utilization": report.component_utilization(),
            "metrics": dict(metrics) if metrics else {"samples": 0.0},
            "layers": layers,
        }
        if extra:
            payload["extra"] = dict(extra)
        return cls(
            run_id=uuid.uuid4().hex[:12],
            created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            workload=workload,
            source=source,
            config_name=config.name,
            config_hash=str(report.metadata.get("config_hash", "")),
            total_cycles=report.total_cycles,
            total_macs=report.total_macs,
            energy_total_uj=round(energy.total_uj, 6),
            wall_clock_s=wall_clock_s,
            cached=bool(cached),
            payload=payload,
        )

    @classmethod
    def from_payload(
        cls,
        workload: str,
        payload: Mapping[str, object],
        source: str = "experiment",
        wall_clock_s: Optional[float] = None,
        total_cycles: int = 0,
        energy_total_uj: float = 0.0,
        config_name: str = "-",
        config_hash: str = "",
    ) -> "RunRecord":
        """Build a record from an arbitrary payload (experiments, benches)."""
        body = {"schema": SCHEMA_VERSION, "workload": workload, **dict(payload)}
        return cls(
            run_id=uuid.uuid4().hex[:12],
            created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            workload=workload,
            source=source,
            config_name=config_name,
            config_hash=config_hash,
            total_cycles=int(total_cycles),
            total_macs=0,
            energy_total_uj=float(energy_total_uj),
            wall_clock_s=wall_clock_s,
            cached=False,
            payload=body,
        )


class RunRegistry:
    """SQLite-backed store of :class:`RunRecord` rows.

    ``path`` may be a directory (the database lands at
    ``<path>/registry.sqlite3``), an explicit ``*.sqlite3`` file, or
    ``None`` for :func:`default_registry_dir`.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        base = Path(path).expanduser() if path is not None else default_registry_dir()
        if base.suffix == ".sqlite3":
            self.db_path = base
        else:
            self.db_path = base / _DB_NAME
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.db_path)
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS runs (
                run_id          TEXT PRIMARY KEY,
                created_utc     TEXT NOT NULL,
                workload        TEXT NOT NULL,
                source          TEXT NOT NULL,
                config_name     TEXT NOT NULL,
                config_hash     TEXT NOT NULL,
                total_cycles    INTEGER NOT NULL,
                total_macs      INTEGER NOT NULL,
                energy_total_uj REAL NOT NULL,
                wall_clock_s    REAL,
                cached          INTEGER NOT NULL DEFAULT 0,
                payload         TEXT NOT NULL
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_runs_workload "
            "ON runs (workload, config_hash)"
        )
        self._conn.commit()

    # ---- write --------------------------------------------------------
    def record(self, record: RunRecord) -> str:
        """Append one record; returns its run id."""
        started = time.perf_counter()
        self._conn.execute(
            "INSERT INTO runs (run_id, created_utc, workload, source, "
            "config_name, config_hash, total_cycles, total_macs, "
            "energy_total_uj, wall_clock_s, cached, payload) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_id, record.created_utc, record.workload,
                record.source, record.config_name, record.config_hash,
                record.total_cycles, record.total_macs,
                record.energy_total_uj, record.wall_clock_s,
                int(record.cached), json.dumps(record.payload),
            ),
        )
        self._conn.commit()
        registry = telemetry()
        registry.counter(
            "stonne_registry_writes_total",
            "Run records appended to the registry, by source",
        ).inc(source=record.source)
        registry.histogram(
            "stonne_registry_write_seconds",
            "Host wall seconds per registry write (insert + commit)",
        ).observe(time.perf_counter() - started)
        return record.run_id

    def record_report(self, report, workload: str, **kwargs) -> str:
        """Shorthand: build a record from a report and append it."""
        return self.record(RunRecord.from_report(report, workload, **kwargs))

    def record_payload(self, workload: str, payload: Mapping[str, object],
                       **kwargs) -> str:
        """Shorthand: append a payload-only record (experiment/bench)."""
        return self.record(RunRecord.from_payload(workload, payload, **kwargs))

    # ---- read ---------------------------------------------------------
    _COLUMNS = (
        "run_id, created_utc, workload, source, config_name, config_hash, "
        "total_cycles, total_macs, energy_total_uj, wall_clock_s, cached, "
        "payload"
    )

    @staticmethod
    def _row_to_record(row) -> RunRecord:
        return RunRecord(
            run_id=row[0], created_utc=row[1], workload=row[2], source=row[3],
            config_name=row[4], config_hash=row[5], total_cycles=row[6],
            total_macs=row[7], energy_total_uj=row[8], wall_clock_s=row[9],
            cached=bool(row[10]), payload=json.loads(row[11]),
        )

    def list_runs(
        self,
        workload: Optional[str] = None,
        config_hash: Optional[str] = None,
        source: Optional[str] = None,
        limit: Optional[int] = 50,
    ) -> List[RunRecord]:
        """Newest-first run listing, optionally filtered."""
        clauses, params = [], []
        for column, value in (("workload", workload),
                              ("config_hash", config_hash),
                              ("source", source)):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT {self._COLUMNS} FROM runs{where} ORDER BY rowid DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [
            self._row_to_record(row)
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def get(self, run_id: str) -> RunRecord:
        """Fetch by exact run id or unique prefix; raises ``KeyError``."""
        rows = self._conn.execute(
            f"SELECT {self._COLUMNS} FROM runs WHERE run_id = ?", (run_id,)
        ).fetchall()
        if not rows:
            rows = self._conn.execute(
                f"SELECT {self._COLUMNS} FROM runs WHERE run_id LIKE ? "
                "ORDER BY rowid DESC",
                (run_id + "%",),
            ).fetchall()
        if not rows:
            raise KeyError(f"no registered run matches {run_id!r}")
        if len(rows) > 1:
            candidates = ", ".join(row[0] for row in rows[:5])
            raise KeyError(
                f"run id prefix {run_id!r} is ambiguous ({candidates}...)"
            )
        return self._row_to_record(rows[0])

    def latest(
        self,
        workload: Optional[str] = None,
        config_hash: Optional[str] = None,
    ) -> Optional[RunRecord]:
        """The most recently recorded run matching the filters, if any."""
        runs = self.list_runs(workload=workload, config_hash=config_hash,
                              limit=1)
        return runs[0] if runs else None

    def resolve(self, ref: str) -> RunRecord:
        """Resolve a CLI run reference.

        ``latest`` → newest run; ``latest:<workload>`` → newest run of
        that workload; anything else → run id or unique prefix.
        """
        if ref == "latest":
            record = self.latest()
            if record is None:
                raise KeyError("registry is empty")
            return record
        if ref.startswith("latest:"):
            record = self.latest(workload=ref[len("latest:"):])
            if record is None:
                raise KeyError(f"no registered run for workload {ref[7:]!r}")
            return record
        return self.get(ref)

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # ---- maintenance --------------------------------------------------
    def prune_candidates(
        self, keep: int = 20, workload: Optional[str] = None
    ) -> List[str]:
        """Run ids :meth:`prune` would delete, newest-first, no writes."""
        if keep < 0:
            raise ValueError("keep must be >= 0")
        params: List[object] = []
        where = ""
        if workload is not None:
            where = " WHERE workload = ?"
            params.append(workload)
        rows = self._conn.execute(
            f"SELECT run_id, workload, config_hash FROM runs{where} "
            "ORDER BY rowid DESC",
            params,
        ).fetchall()
        seen: Dict[tuple, int] = {}
        doomed: List[str] = []
        for run_id, wl, chash in rows:
            key = (wl, chash)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > keep:
                doomed.append(run_id)
        return doomed

    def prune(self, keep: int = 20, workload: Optional[str] = None) -> int:
        """Keep the newest ``keep`` runs per (workload, config_hash).

        Returns the number of deleted rows. With ``workload`` given only
        that workload's groups are pruned.
        """
        doomed = self.prune_candidates(keep=keep, workload=workload)
        if doomed:
            self._conn.executemany(
                "DELETE FROM runs WHERE run_id = ?", [(d,) for d in doomed]
            )
            self._conn.commit()
        return len(doomed)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
