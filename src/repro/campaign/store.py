"""Structured result persistence for experiment campaigns.

One :class:`RunRecord` per run lands in an append-only JSONL file
(``results.jsonl``) the moment the run completes, plus an optional
SQLite index (``results.sqlite``) for ad-hoc SQL over big sweeps.  The
JSONL file is the source of truth: every append is a single atomic
``write`` of one full line, and :meth:`ResultStore.load` skips a
truncated trailing line, so a CI job killed mid-campaign still leaves a
readable store for the artifact upload instead of a corrupt one.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.errors import CampaignError

SCHEMA_VERSION = 1

# Terminal statuses a run can land in.  Everything except "ok" carries
# an ``error`` message; "budget-exceeded" is the kernel's typed
# SimBudgetExceeded surfaced as data rather than a crashed campaign.
RUN_STATUSES = ("ok", "failed", "budget-exceeded", "timeout", "crashed")

STORE_FILENAME = "results.jsonl"
SQLITE_FILENAME = "results.sqlite"


@dataclass
class RunRecord:
    """The structured result of one campaign run (ok or not)."""

    run_id: str
    campaign: str
    scenario: str
    index: int
    cell: Dict[str, Any]
    params: Dict[str, Any]
    seed: int
    status: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    artifacts: List[str] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.status not in RUN_STATUSES:
            raise CampaignError(
                f"unknown run status {self.status!r}; one of {RUN_STATUSES}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        extra = set(raw) - known
        if extra:
            # Forward compatibility: newer writers may add fields.
            raw = {k: v for k, v in raw.items() if k in known}
        return cls(**raw)


class ResultStore:
    """A campaign's on-disk results: ``<dir>/results.jsonl`` (+ SQLite).

    Construction creates the directory (parents included); records are
    appended as runs finish, so a partially-completed campaign is always
    a valid, loadable store.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / STORE_FILENAME
        self._records: List[RunRecord] = []
        if self.path.exists():
            self._records = _read_jsonl(self.path)

    # -- writing ----------------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Append one record; a single atomic line write, then fsync."""
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._records.append(record)

    def write_sqlite(self, path: Optional[Union[str, Path]] = None) -> Path:
        """(Re)build the SQLite index of every record in the store."""
        target = Path(path) if path else self.directory / SQLITE_FILENAME
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.exists():
            target.unlink()
        conn = sqlite3.connect(target)
        try:
            conn.execute(
                "CREATE TABLE runs ("
                " run_id TEXT PRIMARY KEY, campaign TEXT, scenario TEXT,"
                " idx INTEGER, cell TEXT, params TEXT, seed INTEGER,"
                " status TEXT, metrics TEXT, error TEXT, error_type TEXT,"
                " attempts INTEGER, duration_s REAL, artifacts TEXT,"
                " schema_version INTEGER)"
            )
            conn.execute("CREATE INDEX runs_status ON runs (status)")
            conn.execute("CREATE INDEX runs_campaign ON runs (campaign)")
            conn.executemany(
                "INSERT OR REPLACE INTO runs VALUES "
                "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                [
                    (
                        r.run_id, r.campaign, r.scenario, r.index,
                        json.dumps(r.cell, sort_keys=True),
                        json.dumps(r.params, sort_keys=True),
                        r.seed, r.status,
                        json.dumps(r.metrics, sort_keys=True),
                        r.error, r.error_type, r.attempts, r.duration_s,
                        json.dumps(r.artifacts), r.schema,
                    )
                    for r in self._records
                ],
            )
            conn.commit()
        finally:
            conn.close()
        return target

    # -- reading ----------------------------------------------------------

    def records(self) -> List[RunRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def by_run_id(self) -> Dict[str, RunRecord]:
        return {record.run_id: record for record in self._records}

    def failed(self) -> List[RunRecord]:
        return [record for record in self._records if not record.ok]

    @classmethod
    def load(cls, source: Union[str, Path]) -> "ResultStore":
        """Open an existing store from its directory, JSONL, or SQLite.

        Raises :class:`~repro.errors.CampaignError` when nothing is
        there -- loading never silently creates an empty store.
        """
        path = Path(source)
        if path.is_dir():
            if not (path / STORE_FILENAME).exists():
                raise CampaignError(
                    f"no {STORE_FILENAME} under {path}; not a result store"
                )
            return cls(path)
        if not path.exists():
            raise CampaignError(f"result store not found: {path}")
        if path.suffix == ".sqlite":
            return cls._load_sqlite(path)
        store = cls.__new__(cls)
        store.directory = path.parent
        store.path = path
        store._records = _read_jsonl(path)
        return store

    @classmethod
    def _load_sqlite(cls, path: Path) -> "ResultStore":
        conn = sqlite3.connect(path)
        try:
            rows = conn.execute(
                "SELECT run_id, campaign, scenario, idx, cell, params, seed,"
                " status, metrics, error, error_type, attempts, duration_s,"
                " artifacts, schema_version FROM runs ORDER BY idx, seed"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise CampaignError(f"cannot read SQLite store {path}: {exc}") from exc
        finally:
            conn.close()
        store = cls.__new__(cls)
        store.directory = path.parent
        store.path = path.parent / STORE_FILENAME
        store._records = [
            RunRecord(
                run_id=row[0], campaign=row[1], scenario=row[2], index=row[3],
                cell=json.loads(row[4]), params=json.loads(row[5]),
                seed=row[6], status=row[7], metrics=json.loads(row[8]),
                error=row[9], error_type=row[10], attempts=row[11],
                duration_s=row[12], artifacts=json.loads(row[13]),
                schema=row[14],
            )
            for row in rows
        ]
        return store


def _read_jsonl(path: Path) -> List[RunRecord]:
    """Parse a JSONL store, tolerating a truncated/corrupt trailing line.

    A corrupt line *before* the end means real damage and raises; a
    corrupt *last* line is the signature of a killed writer and is
    dropped with a warning so the surviving records stay usable.
    """
    records: List[RunRecord] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(RunRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, TypeError, CampaignError) as exc:
            if lineno == len(lines) - 1:
                print(
                    f"warning: dropping truncated trailing record in "
                    f"{path} (line {lineno + 1}): {exc}",
                    file=sys.stderr,
                )
                continue
            raise CampaignError(
                f"corrupt result store {path} at line {lineno + 1}: {exc}"
            ) from exc
    return records


def iter_numeric_metrics(records: Iterable[RunRecord]) -> List[str]:
    """Sorted names of metrics that are numeric in at least one record."""
    names = set()
    for record in records:
        for key, value in record.metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                names.add(key)
    return sorted(names)
