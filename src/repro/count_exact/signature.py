"""Canonical component signatures — the component cache's key.

The cache maps a *component* (a variable-disjoint piece of the residual
formula under the current partial assignment) to its projected count.
Soundness rests entirely on the key: two cache keys may collide only if
the components have the same count.

The signature of a component is the sorted multiset of its constraints'
canonical residuals (:meth:`repro.sat.kernel.ClauseDB.residual`):
each unsatisfied clause contributes ``("c", literals)`` (its unassigned
literals, sorted), each open XOR row contributes ``("x", variables,
parity)`` with the assigned variables folded into the required parity.

Why this is a sound key under projection:

* the residuals *are* the component's subformula — variables are kept
  under their global ids (no renaming), so equal signatures mean
  literally the same residual constraint set over the same variables;
* which variables belong to the projection set is a global property of
  the search (fixed per run), a function of the variable id — so equal
  signatures also agree on which of their variables are projection
  bits, and therefore on the projected count;
* free variables (mentioned by no active constraint) are never part of
  a component — the counter handles them outside the cache (factor 2
  per free *projection* bit, factor 1 otherwise), so a signature never
  has to encode them.

The same cache stores projection-free components: their "projected
count" is their satisfiability (1 or 0) — one non-projection assignment
either exists or it does not — so SAT subproblem answers and counts
share one table without ambiguity.

:func:`encode_signature`/:func:`decode_signature` are the text form the
component rows of :class:`repro.serve.store.SqliteStore` keep, and
:func:`signature_mask` the projection mask stored beside each one.
"""

from __future__ import annotations

import json

from repro.sat.kernel import ClauseDB, Component

__all__ = ["component_signature", "decode_signature", "encode_signature",
           "projection_occurrences", "signature_mask"]


def component_signature(graph: ClauseDB, values,
                        component: Component) -> tuple:
    """The canonical cache key of ``component`` under ``values``."""
    return tuple(sorted(
        graph.residual(values, cid) for cid in component.constraints))


def projection_occurrences(signature: tuple,
                           projection: frozenset) -> dict[int, int]:
    """How often each projection bit occurs in a signature's residuals —
    the branching heuristic's score (computed off the signature so the
    counter never scans the component twice)."""
    occurrences: dict[int, int] = {}
    for residual in signature:
        if residual[0] == "c":
            variables = (abs(lit) for lit in residual[1])
        else:
            variables = residual[1]
        for var in variables:
            if var in projection:
                occurrences[var] = occurrences.get(var, 0) + 1
    return occurrences


def encode_signature(signature: tuple) -> str:
    """Canonical JSON text of a residual signature.

    The signature is already a canonically sorted tuple, so a plain
    order-preserving list encoding is itself canonical: equal
    signatures encode to equal text.
    """
    parts = []
    for residual in signature:
        if residual[0] == "c":
            parts.append(["c", list(residual[1])])
        else:
            parts.append(["x", list(residual[1]), 1 if residual[2] else 0])
    # sort_keys is a no-op on these lists; it keeps the det-json-keys
    # rule satisfied without changing a byte of the stored text.
    return json.dumps(parts, separators=(",", ":"), sort_keys=True)


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
    sorted projection variables its residuals mention.  Within one run
    it is a function of the signature, so only a cross-run store needs
    to key on it."""
    variables = set()
    for residual in signature:
        if residual[0] == "c":
            variables.update(abs(lit) for lit in residual[1])
        else:
            variables.update(residual[1])
    return tuple(sorted(var for var in variables if var in projection))
