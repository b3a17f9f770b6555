"""Canonical serialisation helpers of the fingerprint
(``fingerprint_terms``, api/problem.py): the params-JSON piece and the
sha256-over-joined-pieces digest, in one module the determinism rules
(``det-json-keys`` and friends, :mod:`repro.analysis`) police.

Everything here must stay byte-identical across runs, processes and
machines — these bytes *are* the cache keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping

__all__ = ["canonical_params_json", "fingerprint_digest"]


def canonical_params_json(params: Mapping) -> str:
    """The canonical JSON form of a fingerprint ``params`` mapping:
    sorted keys (dict order is construction-path-dependent), ``str``
    fallback for non-JSON values (enum members, paths) — identical
    params always yield identical bytes."""
    return json.dumps(dict(params), sort_keys=True, default=str)


def fingerprint_digest(pieces: Iterable[str]) -> str:
    """SHA-256 over newline-joined ``pieces`` — the digest form every
    fingerprint in the repo uses (builtin ``hash()`` is per-process
    randomised and never acceptable here)."""
    return hashlib.sha256("\n".join(pieces).encode()).hexdigest()
