"""The disk-backed component cache (``ComponentStore``).

The in-memory component cache of :class:`repro.count_exact.counter._Search`
maps a canonical residual signature to its exact projected count; every
entry that survives the Sang–Beame–Kautz purge discipline is a
context-free fact about a subformula — sound to reuse in *any* search
that shares the projection regime.  This module makes those facts
durable and shareable: a sqlite database (same idiom as
:class:`repro.serve.store.SqliteStore` — WAL journal mode, one
transaction per mutation, merge-on-write preserving the first
``saved_at``, corrupt rows read as misses) that any number of worker
processes on one machine can read and write concurrently.

Soundness of the key: a raw residual signature is *not* a sufficient
cross-run key — the same residual formula has different projected
counts under different projection sets.  Each row therefore stores the
signature's **projection mask** (the sorted projection variables
occurring in the component) beside the signature, and :meth:`load`
returns only rows whose stored mask equals the mask the *current*
projection set induces on that signature.  Within one run the mask is a
function of the signature (projection membership is per-variable and
fixed), which is exactly why the in-memory cache never needs it.

Counts are stored as decimal text: projected counts routinely exceed
2**63, the ceiling of sqlite's INTEGER affinity.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.utils.sqlite import open_wal

__all__ = ["ComponentStore", "decode_signature", "encode_signature",
           "signature_mask"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS components (
    signature  TEXT NOT NULL,
    projection TEXT NOT NULL,
    count      TEXT NOT NULL,
    saved_at   REAL NOT NULL,
    PRIMARY KEY (signature, projection)
);
"""


def encode_signature(signature: tuple) -> str:
    """Canonical JSON text of a residual signature.

    The signature is already a canonically sorted tuple
    (:func:`repro.count_exact.signature.component_signature`), so a
    plain order-preserving list encoding is itself canonical: equal
    signatures encode to equal text.
    """
    parts = []
    for residual in signature:
        if residual[0] == "c":
            parts.append(["c", list(residual[1])])
        else:
            parts.append(["x", list(residual[1]), 1 if residual[2] else 0])
    return json.dumps(parts, separators=(",", ":"))


def decode_signature(text: str) -> tuple | None:
    """Invert :func:`encode_signature`; ``None`` on any corruption."""
    try:
        parts = json.loads(text)
        if not isinstance(parts, list):
            return None
        signature = []
        for part in parts:
            if part[0] == "c":
                signature.append(("c", tuple(int(lit) for lit in part[1])))
            elif part[0] == "x":
                signature.append(("x", tuple(int(var) for var in part[1]),
                                  bool(part[2])))
            else:
                return None
        return tuple(signature)
    except (ValueError, TypeError, IndexError, KeyError):
        return None


def signature_mask(signature: tuple, projection: frozenset) -> tuple:
    """The projection mask ``projection`` induces on ``signature``: the
    sorted projection variables its residuals mention."""
    variables = set()
    for residual in signature:
        if residual[0] == "c":
            variables.update(abs(lit) for lit in residual[1])
        else:
            variables.update(residual[1])
    return tuple(sorted(var for var in variables if var in projection))


def _encode_mask(mask: tuple) -> str:
    return json.dumps(list(mask), separators=(",", ":"))


class ComponentStore:
    """``(residual signature, projection mask) → exact count``, durable.

    A single instance is thread-safe (one connection behind a lock);
    concurrent instances — one per worker process — serialise through
    sqlite's WAL.  ``load`` is the consult-before-search half of the
    contract, ``flush`` the persist-after half; both are whole-table
    operations because a search touches its cache far too often for a
    per-component disk probe.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.loaded = 0
        self.flushed = 0
        self.corrupt = 0
        self._lock = threading.RLock()
        self._conn = open_wal(self.path, _SCHEMA)

    # ------------------------------------------------------------------
    def load(self, projection: frozenset) -> dict[tuple, int]:
        """Every stored entry usable under ``projection``.

        A row is usable exactly when its stored mask equals the mask
        ``projection`` induces on its signature; rows written under a
        different projection regime — and rows that fail to decode —
        are skipped (corrupt = miss, never fatal).
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

    def flush(self, entries: dict[tuple, int],
              projection: frozenset) -> int:
        """Persist ``entries`` (signature → count), merge-on-write.

        One transaction for the whole batch; a row another process
        persisted first keeps its original ``saved_at`` while the count
        is overwritten (the values are exact, so any overwrite is
        idempotent).  Returns the number of rows written.
        """
        if not entries:
            return 0
        now = time.time()
        rows = [(encode_signature(signature),
                 _encode_mask(signature_mask(signature, projection)),
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
    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM components").fetchone()
            return count

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()

    def __repr__(self) -> str:
        return (f"ComponentStore({self.path}, entries={len(self)}, "
                f"loaded={self.loaded}, flushed={self.flushed})")
