"""Sqlite-backed fact store: durable, crash-safe, multi-reader.

One table, one row per fact, WAL journaling so concurrent readers (other
connections to the same file) never block the single writer. Every
append commits — a process crash loses at most the fact being written,
never corrupts the log, and a reopen resumes from the last committed
seq (the "reopen mid-log" recovery path the tests pin).

Snapshot isolation for readers comes from :meth:`scan` materializing its
row window up front under the seq bound captured at call time: facts
appended afterwards — by this connection or any other — are not yielded.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Iterator

from repro.kb.store.base import Fact, FactStore, validate_fact

_SCHEMA = """
CREATE TABLE IF NOT EXISTS facts (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    op      TEXT NOT NULL,
    kind    TEXT NOT NULL,
    name    TEXT NOT NULL,
    payload TEXT
)
"""


class SqliteFactStore(FactStore):
    """Fact log persisted to a sqlite database file."""

    def __init__(self, path: str, timeout: float = 10.0):
        self.path = path
        self._conn = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False
        )
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._conn.commit()

    def append(self, op: str, kind: str, name: str,
               payload: Any = None) -> Fact:
        validate_fact(op, kind, name)
        blob = None if payload is None else json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO facts (op, kind, name, payload) VALUES (?,?,?,?)",
                (op, kind, name, blob),
            )
            self._conn.commit()
            return Fact(cur.lastrowid, op, kind, name, payload)

    def scan(self, after: int = 0, upto: int | None = None) -> Iterator[Fact]:
        # Not a generator: the bound is read and the rows fetched now,
        # not at the first next().
        bound = self.latest_seq if upto is None else upto
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, op, kind, name, payload FROM facts "
                "WHERE seq > ? AND seq <= ? ORDER BY seq",
                (after, bound),
            ).fetchall()
        return (
            Fact(seq, op, kind, name, None if blob is None else json.loads(blob))
            for seq, op, kind, name, blob in rows
        )

    @property
    def latest_seq(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq), 0) FROM facts"
            ).fetchone()
        return int(row[0])

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
