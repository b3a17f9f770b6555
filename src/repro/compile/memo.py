"""The per-process compile memo: one compilation per (problem, params).

Compilation (preprocess + bitblast + simplify) is the expensive prefix
every counting workload shares — iterations, matrix slots, portfolio
arms.  This module guarantees it runs **exactly once per (problem,
params) per process**: a digest-keyed memo with per-key build locks, so
concurrent threads racing for the same artifact serialise on one build
instead of duplicating it.

Serial and thread workers share the memo; forked process workers
inherit it, so they find the artifact the orchestrator compiled; spawned
process workers compile on first use and reuse the artifact for every
later task they run.

``compile_counters`` backs the exactly-once acceptance tests: it counts
actual pipeline builds per key (memo hits do not count).
"""

from __future__ import annotations

import hashlib
import threading

from repro.compile.artifact import CompiledProblem
from repro.compile.pipeline import compile_problem

__all__ = [
    "canonical_digest", "compile_counters", "compiled_for",
    "reset_compile_memo",
]

# Artifacts are a few hundred KB at most; a long-lived worker serving
# many distinct problems evicts oldest-first at the cap (dicts are
# insertion-ordered) rather than growing forever — artifacts are
# re-creatable, and suites larger than the cap must not thrash the
# whole memo on every new key.
_MEMO_CAP = 64

_memo: dict[tuple, CompiledProblem] = {}
# Per-key build counts of the keys the memo holds (eviction drops a
# key's count), and the process's running total of builds.
_builds: dict[tuple, int] = {}
_build_total = [0]
_memo_lock = threading.Lock()
_key_locks: dict[tuple, threading.Lock] = {}


def canonical_digest(assertions, projection) -> str:
    """The artifact digest of in-memory terms — THE one recipe every
    layer shares (counters, ``Problem.compile``, fan-out chains): the
    SHA-256 of the *logic-free* canonical serialisation.  Keeping a
    single definition is load-bearing: if two layers hashed different
    serialisations of the same problem, a fan-out worker would miss the
    artifact its parent compiled and compile it again."""
    from repro.smt.printer import write_script
    script = write_script(list(assertions), projection=list(projection))
    return hashlib.sha256(script.encode()).hexdigest()


def _key(digest: str, kind: str, extra: tuple) -> tuple:
    return (digest, kind) + tuple(extra)


def _evict_to_cap(incoming: tuple) -> None:
    """Make room for ``incoming``, oldest-first (caller holds the lock)."""
    while len(_memo) >= _MEMO_CAP and incoming not in _memo:
        evicted = next(iter(_memo))
        del _memo[evicted]
        _builds.pop(evicted, None)


def compiled_for(assertions, projection, *, digest: str | None = None,
                 kind: str = "pact", extra: tuple = ()) -> CompiledProblem:
    """The memoised compile front door.

    ``digest`` identifies the problem (its compile key; by default the
    :func:`canonical_digest` of the terms given); ``kind``/``extra``
    distinguish derived formulas compiled under the same problem (CDM
    compiles the q-fold self-composition, so its key carries
    ``("cdm", copies)``).  Exactly one pipeline run happens per key per
    process, even under thread fan-out.
    """
    if digest is None:
        digest = canonical_digest(assertions, projection)
    key = _key(digest, kind, extra)
    with _memo_lock:
        artifact = _memo.get(key)
        if artifact is not None:
            return artifact
        lock = _key_locks.setdefault(key, threading.Lock())
    with lock:
        try:
            with _memo_lock:
                artifact = _memo.get(key)
            if artifact is not None:
                return artifact
            artifact = compile_problem(assertions, projection,
                                       digest=digest)
            with _memo_lock:
                _evict_to_cap(key)
                _memo[key] = artifact
                _builds[key] = _builds.get(key, 0) + 1
                _build_total[0] += 1
            return artifact
        finally:
            # Also when the compile raises: a server handed many
            # distinct unsupported problems must not keep a lock each.
            with _memo_lock:
                if _key_locks.get(key) is lock:
                    del _key_locks[key]


def compile_counters() -> dict:
    """Build accounting for the exactly-once tests: total pipeline runs
    of this process and the per-key build counts of the keys the memo
    holds."""
    with _memo_lock:
        return {"builds": _build_total[0],
                "per_key": dict(_builds), "entries": len(_memo)}


def reset_compile_memo() -> None:
    """Drop memo and counters (tests, and the A/B benchmark's cold legs)."""
    with _memo_lock:
        _memo.clear()
        _builds.clear()
        _build_total[0] = 0
        _key_locks.clear()
