"""Literal conventions and solver result codes.

Literals are DIMACS-style signed integers: variable ``v`` (1-based) appears
positively as ``v`` and negatively as ``-v``.  Internally, arrays are indexed
by :func:`lit_index`, which maps ``v -> 2(v-1)`` and ``-v -> 2(v-1)+1``.
"""

from __future__ import annotations

SAT = True
UNSAT = False
UNKNOWN = None

# Truth values stored per variable.
TRUE = 1
FALSE = 0
UNASSIGNED = -1


def lit_index(lit: int) -> int:
    """Map a signed literal to a dense non-negative array index."""
    if lit > 0:
        return (lit - 1) << 1
    return ((-lit - 1) << 1) | 1
