"""The one open sequence of the WAL-mode sqlite stores
(:class:`repro.serve.store.SqliteStore`,
:class:`repro.count_exact.store.ComponentStore`)."""

from __future__ import annotations

import os
import sqlite3
import time

BUSY_TIMEOUT_S = 30.0


def open_wal(path: str | os.PathLike, schema: str) -> sqlite3.Connection:
    """Connect to ``path`` (shareable across threads behind the
    caller's lock), switch to WAL, relax ``synchronous``, set the busy
    timeout and create ``schema``.

    When several processes open one fresh file at the same moment,
    SQLite fails the WAL switch with "database is locked" at once
    instead of waiting out the busy timeout, so the switch is retried
    — sleeping 1 ms, doubling up to 50 ms — for up to that timeout.
    """
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S,
                           check_same_thread=False)
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
        conn.executescript(schema)
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn
