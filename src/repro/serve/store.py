"""The sqlite-backed :class:`~repro.engine.cache.ResultStore`.

One database file holds both halves of the store — fingerprint-keyed
result payloads and digest-keyed compiled artifacts — under the *same
keys* as the JSON cache (:class:`repro.engine.cache.ResultCache`), so a
session can switch backends and keep hitting, and the differential
harness can assert bit-identical :class:`CountResponse` round trips
from either store.

Why sqlite for the serving layer:

* **Safe under multiple processes.**  WAL journal mode gives
  single-writer/many-reader concurrency without torn documents; every
  mutation is its own transaction (merge-on-write — ``INSERT .. ON
  CONFLICT DO UPDATE`` preserves the first ``saved_at``), so several
  ``pact serve`` processes (or a CLI run beside a live server) sharing
  one file never lose rows.  The JSON cache's flush-time merge is a
  best-effort read-modify-write; here the database does it properly.
* **No O(n) flush.**  The JSON document is rewritten whole on every
  flush; sqlite writes only the changed rows, which matters once the
  store holds a service's worth of results.

``flush`` only enforces the LRU bounds (rows are durable at ``put``
time); the shared interface semantics — hit/miss/eviction accounting,
recency refresh only when bounded — match the JSON cache exactly.  A
single instance is thread-safe (one connection behind a lock; sqlite
serialises writers across processes via the WAL).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.engine.cache import (
    DEFAULT_MAX_ARTIFACTS, ResultCache, ResultStore,
)
from repro.utils.sqlite import open_wal

__all__ = ["SqliteStore", "open_store"]

SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

# ``artifacts.simplified`` is always 1; it stays in the key so databases
# written by earlier versions keep hitting.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    saved_at    REAL NOT NULL,
    used_at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    digest     TEXT NOT NULL,
    simplified INTEGER NOT NULL,
    payload    TEXT NOT NULL,
    used_at    REAL NOT NULL,
    PRIMARY KEY (digest, simplified)
);
"""


class SqliteStore(ResultStore):
    """Results + artifacts in one WAL-mode sqlite database.

    ``max_entries``/``max_artifacts`` carry the JSON cache's LRU
    semantics (enforced at :meth:`flush` for entries, at
    :meth:`put_artifact` for artifacts); ``None`` means unbounded.
    """

    def __init__(self, path: str | os.PathLike,
                 max_entries: int | None = None,
                 max_artifacts: int | None = DEFAULT_MAX_ARTIFACTS):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_artifacts = max_artifacts
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.artifact_evictions = 0
        self._lock = threading.RLock()
        self._conn = open_wal(self.path, _SCHEMA)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM entries WHERE fingerprint = ?",
                (fingerprint,)).fetchone()
            if row is None:
                self.misses += 1
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                # Corrupt row: a miss, never fatal (same tolerance as
                # the JSON cache).
                self.misses += 1
                return None
            self.hits += 1
            if self.max_entries is not None:
                # Refresh recency only when bounded — parity with the
                # JSON cache, where an all-hit unbounded run stays
                # read-only.
                self._conn.execute(
                    "UPDATE entries SET used_at = ? WHERE fingerprint = ?",
                    (time.time(), fingerprint))
                self._conn.commit()
            return payload

    def put(self, fingerprint: str, payload: Mapping) -> None:
        record = dict(payload)
        now = time.time()
        record.setdefault("saved_at", now)
        record["used_at"] = now
        with self._lock:
            # Merge-on-write: a row another process persisted first
            # keeps its original saved_at; the payload itself is ours
            # (the newest observation wins).
            self._conn.execute(
                "INSERT INTO entries (fingerprint, payload, saved_at,"
                " used_at) VALUES (?, ?, ?, ?)"
                " ON CONFLICT(fingerprint) DO UPDATE SET"
                " payload = excluded.payload,"
                " used_at = excluded.used_at",
                (fingerprint, json.dumps(record, sort_keys=True),
                 record["saved_at"], record["used_at"]))
            self._conn.commit()

    def flush(self) -> None:
        """Rows are durable at ``put`` time; flush enforces the LRU
        bound (evict the least-recently-used entries beyond
        ``max_entries``)."""
        if self.max_entries is None:
            return
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
            excess = count - self.max_entries
            if excess <= 0:
                return
            cursor = self._conn.execute(
                "DELETE FROM entries WHERE fingerprint IN"
                " (SELECT fingerprint FROM entries"
                "  ORDER BY used_at ASC LIMIT ?)", (excess,))
            self.evictions += cursor.rowcount
            self._conn.commit()

    # ------------------------------------------------------------------
    # compiled artifacts
    # ------------------------------------------------------------------
    def get_artifact(self, digest: str) -> dict | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM artifacts"
                " WHERE digest = ? AND simplified = 1",
                (digest,)).fetchone()
            if row is None:
                self.artifact_misses += 1
                return None
            try:
                payload = json.loads(row[0])
            except ValueError:
                self.artifact_misses += 1
                return None
            if not isinstance(payload, dict):
                self.artifact_misses += 1
                return None
            self._conn.execute(
                "UPDATE artifacts SET used_at = ?"
                " WHERE digest = ? AND simplified = 1",
                (time.time(), digest))
            self._conn.commit()
            self.artifact_hits += 1
            return payload

    def has_artifact(self, digest: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM artifacts"
                " WHERE digest = ? AND simplified = 1",
                (digest,)).fetchone()
            return row is not None

    def put_artifact(self, digest: str, payload: Mapping) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO artifacts (digest, simplified, payload,"
                " used_at) VALUES (?, 1, ?, ?)"
                " ON CONFLICT(digest, simplified) DO UPDATE SET"
                " payload = excluded.payload,"
                " used_at = excluded.used_at",
                (digest, json.dumps(dict(payload)), time.time()))
            if self.max_artifacts is not None:
                cursor = self._conn.execute(
                    "DELETE FROM artifacts WHERE (digest, simplified) IN"
                    " (SELECT digest, simplified FROM artifacts"
                    "  ORDER BY used_at ASC"
                    "  LIMIT max(0, (SELECT COUNT(*) FROM artifacts)"
                    "             - ?))", (self.max_artifacts,))
                self.artifact_evictions += max(0, cursor.rowcount)
            self._conn.commit()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
            return count

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.commit()
            self._conn.close()

    def __repr__(self) -> str:
        return (f"SqliteStore({self.path}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")


def open_store(target: str | os.PathLike, **bounds) -> ResultStore:
    """Open the right :class:`ResultStore` for ``target``.

    A path ending in ``.sqlite``/``.sqlite3``/``.db`` (or prefixed
    ``sqlite:``) opens a :class:`SqliteStore`; anything else is a cache
    *directory* for the JSON :class:`ResultCache` — exactly the
    ``--cache-dir`` contract the CLI always had, extended rather than
    changed.
    """
    text = str(target)
    if text.startswith("sqlite:"):
        return SqliteStore(text[len("sqlite:"):], **bounds)
    if text.endswith(SQLITE_SUFFIXES):
        return SqliteStore(text, **bounds)
    return ResultCache(target, **bounds)
