"""The persistent result store: fingerprint-keyed results + artifacts.

A *fingerprint* canonically identifies a counting problem; the algorithm
lives with the problem object (:func:`repro.api.problem.fingerprint_terms`
— the store keeps results, it does not know which counter parameters
matter).  :func:`formula_fingerprint` stays as a delegating alias for the
engine-level callers.  Fingerprints are stable across runs and machines:
two structurally identical formulas built in different processes print
identically.

Two pieces live here:

* :class:`ResultStore` — the abstract interface every persistent
  result+artifact backend implements: fingerprint-keyed result payloads
  (``get``/``put``/``flush``) and digest-keyed compiled artifacts
  (``get_artifact``/``put_artifact``/``has_artifact``), plus uniform
  hit/miss/eviction accounting.  :class:`repro.api.session.Session` and
  the serving layer (:mod:`repro.serve`) program against this interface;
  the sqlite backend lives in :mod:`repro.serve.store`.
* :class:`ResultCache` — the original JSON-on-disk implementation.

On disk the JSON cache is a single document::

    {
      "version": 1,
      "entries": {
        "<fingerprint>": {"estimate": 137, "status": "ok", ...},
        ...
      }
    }

plus an ``artifacts/`` directory of compiled-problem payloads
(:meth:`ResultCache.put_artifact`), one JSON file per artifact digest —
compiled artifacts are much larger than result rows, so they live beside
the document, not inside it.

``max_entries``/``max_artifacts`` bound both stores with
least-recently-used eviction: result recency is tracked per entry
(``used_at``, refreshed on every hit) and enforced at :meth:`flush`;
artifact recency is the file's mtime, refreshed on read.  Eviction
counts appear in :attr:`stats`.

Writes are atomic (temp file + fsync + ``os.replace``) and
**merge-on-write**: :meth:`flush` re-reads the on-disk document and
folds in entries another process persisted since our load, so several
cooperating processes (CLI runs, ``pact serve`` workers) sharing one
directory lose no rows — for a fingerprint written by both sides the
local row wins (it is the newest observation).  A corrupt or foreign
file (or a corrupt individual entry) is treated as empty rather than
fatal: the cache is an accelerator, never a correctness dependency —
but with atomic writes that tolerance is a fallback, not a load-bearing
path.  All mutating operations take an internal lock, so one store
instance may be shared by concurrent threads (the serving layer's
worker threads do).
"""

from __future__ import annotations

import abc
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.utils.canonical import canonical_params_json, fingerprint_digest

CACHE_VERSION = 1
DEFAULT_FILENAME = "pact-cache.json"
ARTIFACT_DIRNAME = "artifacts"
DEFAULT_MAX_ARTIFACTS = 256
# Leftover ``.*.tmp`` files from a crashed writer are swept at flush
# once they are old enough that no live writer can still own them.
STALE_TEMP_SECONDS = 600.0


def formula_fingerprint(assertions, projection,
                        params: Mapping | None = None) -> str:
    """Canonical fingerprint of (formula, projection, parameters).

    Delegates to :func:`repro.api.problem.fingerprint_terms` (imported
    lazily — the API layer sits above the engine).  The hash is
    byte-identical for identical ``params``, so matrix (``pact run``)
    caches written before the API layer existed still hit; ``pact
    count``'s per-command keys changed once (its params now name the
    canonical counter), so only that command re-solves old entries.
    """
    from repro.api.problem import fingerprint_terms
    return fingerprint_terms(assertions, projection, params)


def script_fingerprint(script: str, params: Mapping | None = None) -> str:
    """Fingerprint from an already-serialised SMT-LIB script."""
    pieces = [f"pact-cache-v{CACHE_VERSION}", script]
    if params:
        pieces.append(canonical_params_json(params))
    return fingerprint_digest(pieces)


def _write_atomic(directory: Path, target: Path, prefix: str,
                  payload) -> None:
    """Serialise ``payload`` to ``target`` via temp file + fsync +
    ``os.replace`` — a reader (or a concurrent writer's reader half)
    can never observe a torn document, and a crash mid-write leaves the
    previous version intact."""
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, target)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _sweep_stale_temps(directory: Path) -> None:
    """Remove temp files abandoned by a crashed writer.

    Only files past :data:`STALE_TEMP_SECONDS` go — a younger temp may
    belong to a live writer about to ``os.replace`` it."""
    try:
        candidates = list(directory.glob(".*.tmp"))
    except OSError:
        return
    # pact: allow[det-wallclock] — file-age sweep threshold, never key
    # material: fingerprints do not see this value.
    horizon = time.time() - STALE_TEMP_SECONDS
    for path in candidates:
        try:
            if path.stat().st_mtime < horizon:
                path.unlink()
        except OSError:
            pass


class ResultStore(abc.ABC):
    """The persistent result+artifact store interface.

    Implementations key result payloads (plain JSON-able mappings, see
    :func:`repro.api.request.result_payload`) by canonical formula
    fingerprints and compiled-artifact payloads by compile digests —
    the same keys regardless of backend, so a session can switch
    backends and keep hitting.  Mutations may be buffered until
    :meth:`flush`; implementations must make ``flush`` safe to call
    concurrently with reads and safe under multiple processes sharing
    one store.  All implementations count ``hits``/``misses``/
    ``evictions`` (results) and ``artifact_hits``/``artifact_misses``/
    ``artifact_evictions`` the same way so :attr:`stats` is uniform.
    """

    hits = 0
    misses = 0
    evictions = 0
    artifact_hits = 0
    artifact_misses = 0
    artifact_evictions = 0

    # -- results -------------------------------------------------------
    @abc.abstractmethod
    def get(self, fingerprint: str) -> dict | None:
        """Look up a result payload, counting the hit or miss."""

    @abc.abstractmethod
    def put(self, fingerprint: str, payload: Mapping) -> None:
        """Record a result payload under ``fingerprint``."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Persist buffered mutations (and enforce any LRU bound)."""

    # -- compiled artifacts -------------------------------------------
    @abc.abstractmethod
    def get_artifact(self, digest: str) -> dict | None:
        """Load a compiled-artifact payload (None on miss/corruption)."""

    @abc.abstractmethod
    def has_artifact(self, digest: str) -> bool:
        """Existence check without touching hit/miss accounting."""

    @abc.abstractmethod
    def put_artifact(self, digest: str, payload: Mapping) -> None:
        """Persist a compiled-artifact payload."""

    # -- lifecycle -----------------------------------------------------
    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of result entries currently visible."""

    def close(self) -> None:
        """Flush and release any backend resources."""
        self.flush()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self), "evictions": self.evictions,
                "artifact_hits": self.artifact_hits,
                "artifact_misses": self.artifact_misses,
                "artifact_evictions": self.artifact_evictions}


class ResultCache(ResultStore):
    """Fingerprint -> result payload store, JSON on disk.

    ``max_entries`` bounds the result document (LRU eviction at flush);
    ``max_artifacts`` bounds the artifact directory (LRU by file mtime).
    ``None`` means unbounded; result rows default to unbounded (the
    pre-bound behaviour — they are tiny), while artifacts — "much
    larger than result rows" — default to :data:`DEFAULT_MAX_ARTIFACTS`
    since they are derived data, always re-creatable by a compile.
    """

    def __init__(self, directory: str | os.PathLike,
                 filename: str = DEFAULT_FILENAME,
                 max_entries: int | None = None,
                 max_artifacts: int | None = DEFAULT_MAX_ARTIFACTS):
        self.directory = Path(directory)
        self.path = self.directory / filename
        self.artifact_dir = self.directory / ARTIFACT_DIRNAME
        self.max_entries = max_entries
        self.max_artifacts = max_artifacts
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.artifact_hits = 0
        self.artifact_misses = 0
        self.artifact_evictions = 0
        self._entries: dict[str, dict] | None = None
        self._dirty = False
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _read_document(self) -> dict[str, dict]:
        """The entries of the on-disk document (empty on absence or
        corruption; corrupt individual entries are dropped, not fatal)."""
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if (isinstance(document, dict)
                and document.get("version") == CACHE_VERSION
                and isinstance(document.get("entries"), dict)):
            return {fingerprint: entry
                    for fingerprint, entry in document["entries"].items()
                    if isinstance(entry, dict)}
        return {}

    def _load(self) -> dict[str, dict]:
        with self._lock:
            if self._entries is None:
                self._entries = self._read_document()
            return self._entries

    def get(self, fingerprint: str) -> dict | None:
        """Look up a payload, counting the hit or miss."""
        with self._lock:
            entry = self._load().get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            if self.max_entries is not None:
                # Refresh recency for the LRU bound; persisted so recency
                # survives across runs.  Unbounded caches skip the stamp so
                # an all-hit run stays read-only (no document rewrite).
                # pact: allow[det-wallclock] — recency metadata beside the
                # entry, never folded into the fingerprint.
                entry["used_at"] = time.time()
                self._dirty = True
            return dict(entry)

    def put(self, fingerprint: str, payload: Mapping) -> None:
        record = dict(payload)
        # pact: allow[det-wallclock] — saved_at/used_at are recency
        # metadata beside the entry, never folded into the fingerprint.
        now = time.time()
        record.setdefault("saved_at", now)
        record["used_at"] = now
        with self._lock:
            self._load()[fingerprint] = record
            self._dirty = True

    def _evict_over_bound(self) -> None:
        # The lock is reentrant: flush() already holds it, and taking it
        # here keeps the method safe (and the lock rule satisfied) if a
        # future caller forgets.
        with self._lock:
            if self.max_entries is None:
                return
            entries = self._load()
            excess = len(entries) - self.max_entries
            if excess <= 0:
                return
            by_recency = sorted(
                entries,
                key=lambda f: (entries[f].get("used_at")
                               or entries[f].get("saved_at") or 0.0))
            for fingerprint in by_recency[:excess]:
                del entries[fingerprint]
                self.evictions += 1
            self._dirty = True

    def flush(self) -> None:
        """Atomically persist the cache if anything changed.

        Merge-on-write: entries another process flushed since our load
        are folded in first (local rows win on conflict — they are the
        newest observation), then least-recently-used entries beyond
        ``max_entries`` are evicted, then the document is replaced
        atomically (temp + fsync + ``os.replace``).
        """
        with self._lock:
            if not self._dirty:
                return
            entries = self._load()
            for fingerprint, entry in self._read_document().items():
                entries.setdefault(fingerprint, entry)
            self._evict_over_bound()
            self.directory.mkdir(parents=True, exist_ok=True)
            document = {"version": CACHE_VERSION, "entries": entries}
            _write_atomic(self.directory, self.path, ".cache-", document)
            _sweep_stale_temps(self.directory)
            self._dirty = False

    # ------------------------------------------------------------------
    # compiled artifacts (one file per digest, LRU by mtime)
    # ------------------------------------------------------------------
    def _artifact_path(self, digest: str) -> Path:
        # The "-s1" suffix is the historical name, kept so artifact
        # directories written by earlier versions keep hitting.
        return self.artifact_dir / f"{digest}-s1.json"

    def get_artifact(self, digest: str) -> dict | None:
        """Load a compiled-artifact payload (None on miss/corruption)."""
        path = self._artifact_path(digest)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            with self._lock:
                self.artifact_misses += 1
            return None
        if not isinstance(payload, dict):
            with self._lock:
                self.artifact_misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        with self._lock:
            self.artifact_hits += 1
        return payload

    def has_artifact(self, digest: str) -> bool:
        """Existence check without touching hit/miss accounting."""
        return self._artifact_path(digest).exists()

    def put_artifact(self, digest: str, payload: Mapping) -> None:
        """Persist a compiled-artifact payload (atomic, then LRU-trim)."""
        with self._lock:
            self.artifact_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(self.artifact_dir,
                          self._artifact_path(digest),
                          ".artifact-", dict(payload))
            self._trim_artifacts()

    def _trim_artifacts(self) -> None:
        # Reentrant from put_artifact (which holds the lock); taking it
        # again keeps the eviction counter write lock-atomic on its own.
        with self._lock:
            if self.max_artifacts is None:
                return
            try:
                files = [path for path in self.artifact_dir.glob("*.json")]
            except OSError:
                return
            excess = len(files) - self.max_artifacts
            if excess <= 0:
                return
            def mtime(path):
                try:
                    return path.stat().st_mtime
                except OSError:
                    return 0.0
            for path in sorted(files, key=mtime)[:excess]:
                try:
                    path.unlink()
                    self.artifact_evictions += 1
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._load())

    def __enter__(self) -> "ResultCache":
        return self

    def __repr__(self) -> str:
        return (f"ResultCache({self.path}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")
