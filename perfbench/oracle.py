"""The independent oracle every answer is checked against.

The known count is the benchgen generator's analytic count, brute-forced
over the projected domain at generation time; it never goes through the
solver stack being measured.
"""

from __future__ import annotations

from fractions import Fraction

EPSILON = 0.8  # the counters' default tolerance, which the workloads use


def check(known: int, estimate, status: str, exact: bool) -> bool:
    """True when the answer is correct.

    ``exact`` answers must equal the known count.  Approximate answers
    must lie in the PAC band known/(1+eps) <= estimate <= known*(1+eps).
    Any status other than ``ok`` and any missing estimate is a failure.
    The band is compared in exact rational arithmetic.
    """
    if str(status) != "ok" or not isinstance(estimate, int):
        return False
    if exact:
        return estimate == known
    eps = Fraction(str(EPSILON))
    return known / (1 + eps) <= estimate <= known * (1 + eps)


def relative_error(known: int, estimate) -> float:
    """|estimate - known| / known (0 for a missing estimate: a failure
    is counted by :func:`check`, not here)."""
    if not isinstance(estimate, int):
        return 0.0
    return abs(estimate - known) / known
