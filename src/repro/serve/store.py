"""The one persistent store: one WAL-mode sqlite database holding
fingerprint-keyed results (``entries``, the payloads
:meth:`repro.api.request.CountResponse.to_payload` writes) and
``exact:cc``'s component counts (``components``).  A database written
by an earlier version may also hold an ``artifacts`` table of compiled
artifacts; it is never read or written.

Every mutation is its own transaction and merges on write (``INSERT ..
ON CONFLICT DO UPDATE`` keeps the first ``saved_at``), so processes
sharing one file never lose rows; one instance is thread-safe (one
connection behind a lock).  The store is an accelerator: a row that is
not a JSON object reads as a miss.  A file that is not a database is
never touched — opening it raises :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.count_exact.signature import (
    decode_signature, encode_signature, signature_mask,
)
from repro.errors import ReproError

__all__ = ["SqliteStore", "database_path", "open_wal"]

SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")
DEFAULT_FILENAME = "pact-cache.sqlite"
BUSY_TIMEOUT_S = 30.0

# Component counts are decimal text: projected counts routinely exceed
# 2**63, the ceiling of sqlite's INTEGER affinity.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    saved_at    REAL NOT NULL,
    used_at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS components (
    signature  TEXT NOT NULL,
    projection TEXT NOT NULL,
    count      TEXT NOT NULL,
    saved_at   REAL NOT NULL,
    PRIMARY KEY (signature, projection)
);
"""


def database_path(target: str | os.PathLike) -> Path:
    """The one path rule of result-store targets: a path with a sqlite
    suffix is the database file, any other a directory holding
    ``pact-cache.sqlite``."""
    if str(target).endswith(SQLITE_SUFFIXES):
        return Path(target)
    return Path(target) / DEFAULT_FILENAME


def open_wal(path: str | os.PathLike) -> sqlite3.Connection:
    """Create ``path``'s directory, connect (shareable across threads
    behind the caller's lock), switch to WAL, relax ``synchronous``,
    set the busy timeout and create the schema.

    When several processes open one fresh file at the same moment,
    SQLite fails the WAL switch with "database is locked" at once
    instead of waiting out the busy timeout, so the switch is retried
    — sleeping 1 ms, doubling up to 50 ms — for up to that timeout.
    Any other failure (a file that is not a database, an unreadable
    path) raises :class:`ReproError` naming ``path``.
    """
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S,
                               check_same_thread=False)
    except (OSError, sqlite3.Error) as error:
        raise ReproError(f"cannot open store {path}: {error}") from error
    try:
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        pause = 0.001
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if ("locked" not in str(error)
                        or time.monotonic() >= deadline):
                    raise
            time.sleep(pause)
            pause = min(pause * 2, 0.05)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        conn.executescript(_SCHEMA)
        conn.commit()
    except sqlite3.Error as error:
        conn.close()
        raise ReproError(f"cannot open store {path}: {error}") from error
    except BaseException:
        conn.close()
        raise
    return conn


def _json_object(text: str) -> dict | None:
    """``text`` decoded, when it is a JSON object; None otherwise."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


class SqliteStore:
    """Results and component counts in one database file.

    ``max_entries`` bounds the results (least-recently-used eviction at
    :meth:`flush`; recency is refreshed on hits only when bounded, so an
    all-hit unbounded run stays read-only); the default ``None`` means
    unbounded (rows are tiny).
    """

    def __init__(self, path: str | os.PathLike,
                 max_entries: int | None = None):
        self.path = Path(path)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.loaded = 0
        self.flushed = 0
        self.corrupt = 0
        self._lock = threading.RLock()
        self._conn = open_wal(self.path)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> dict | None:
        """Look up a result payload, counting the hit or miss."""
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM entries WHERE fingerprint = ?",
                (fingerprint,)).fetchone()
            payload = None if row is None else _json_object(row[0])
            if payload is None:
                self.misses += 1
                return None
            self.hits += 1
            if self.max_entries is not None:
                self._conn.execute(
                    "UPDATE entries SET used_at = ? WHERE fingerprint = ?",
                    (time.time(), fingerprint))
                self._conn.commit()
            return payload

    def put(self, fingerprint: str, payload: Mapping) -> None:
        """Record a result payload under ``fingerprint``."""
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
    # exact:cc component counts, keyed by (signature, projection mask):
    # the same residual has different projected counts under different
    # projection sets.  Whole-table operations — a search touches its
    # cache far too often for a per-component disk probe.
    # ------------------------------------------------------------------
    def load_components(self, projection: frozenset) -> dict[tuple, int]:
        """Every stored component count usable under ``projection``.

        Rows written under another projection regime are skipped; rows
        that fail to decode are counted in ``corrupt`` and skipped.
        """
        entries: dict[tuple, int] = {}
        corrupt = 0
        with self._lock:
            rows = self._conn.execute(
                "SELECT signature, projection, count"
                " FROM components").fetchall()
        for signature_text, mask_text, count_text in rows:
            signature = decode_signature(signature_text)
            if signature is None:
                corrupt += 1
                continue
            try:
                count = int(count_text)
                mask = tuple(int(var) for var in json.loads(mask_text))
            except (ValueError, TypeError):
                corrupt += 1
                continue
            if mask != signature_mask(signature, projection):
                continue
            entries[signature] = count
        with self._lock:
            self.loaded += len(entries)
            self.corrupt += corrupt
        return entries

    def flush_components(self, entries: dict[tuple, int],
                         projection: frozenset) -> int:
        """Persist ``entries`` (signature → count) in one transaction.

        A row another process persisted first keeps its ``saved_at``
        while the count is overwritten (the values are exact, so any
        overwrite is idempotent).  Returns the number of rows written.
        """
        if not entries:
            return 0
        now = time.time()
        rows = [(encode_signature(signature),
                 json.dumps(list(signature_mask(signature, projection)),
                            separators=(",", ":")),
                 str(count), now)
                for signature, count in entries.items()]
        with self._lock:
            self._conn.executemany(
                "INSERT INTO components (signature, projection, count,"
                " saved_at) VALUES (?, ?, ?, ?)"
                " ON CONFLICT(signature, projection) DO UPDATE SET"
                " count = excluded.count",
                rows)
            self._conn.commit()
            self.flushed += len(rows)
        return len(rows)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of result entries (``pact serve``'s
        ``store_entries`` gauge)."""
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
            return count

    @property
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self), "evictions": self.evictions}

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.commit()
            self._conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SqliteStore({self.path}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
