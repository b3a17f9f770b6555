"""enum: the exact enumeration-based counter (section IV-B).

Blocks every projected model until UNSAT.  Used to compute ground truth
for the accuracy experiment (Fig. 2) and as the most naive baseline.  A
``limit`` caps the enumeration for instances whose counts are too large
to enumerate (the paper keeps only instances enum finishes on).
"""

from __future__ import annotations

import time

from repro.core.result import CountResult
from repro.errors import SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.smt.solver import SmtSolver
from repro.smt.terms import Term
from repro.status import Status
from repro.utils.deadline import Deadline


def exact_count(assertions, projection: list[Term],
                timeout: float | None = None,
                limit: int | None = None,
                deadline: Deadline | None = None) -> CountResult:
    """Count |Sol(F)|_S| exactly by projected enumeration.

    Returns status "ok"/exact on completion, "timeout" on deadline,
    "limit" if more than ``limit`` solutions exist.  ``deadline``
    optionally replaces the ``timeout``-derived deadline with an
    external (possibly cancellable) one.
    """
    if isinstance(assertions, Term):
        assertions = [assertions]
    start = time.monotonic()
    if deadline is None:
        deadline = Deadline(timeout)
    solver = SmtSolver()
    solver.assert_all(assertions)
    solver.set_projection(projection)
    count = 0
    calls = 0
    try:
        while True:
            deadline.check()
            calls += 1
            if not solver.check(deadline):
                break
            count += 1
            if limit is not None and count > limit:
                # The partial enumeration is not discarded silently:
                # ``count`` models were found before the cap tripped, so
                # it is a sound lower bound on the projected count.
                return CountResult(
                    estimate=None, status=Status.LIMIT, solver_calls=calls,
                    time_seconds=time.monotonic() - start, detail=
                    f"at least {count} projected solutions "
                    f"(limit {limit} tripped; partial enumeration "
                    f"is a lower bound, not an estimate)")
            solver.block_projection()
    except SolverTimeoutError:
        return CountResult(
            estimate=None, status=Status.TIMEOUT, solver_calls=calls,
            time_seconds=time.monotonic() - start)
    finally:
        # One kernel-telemetry merge per count, as pact_count/cdm_count
        # do, so ``--counter enum --stats`` reports its solves.
        TELEMETRY.merge(solver.sat.stats, prefix="enum.")
    return CountResult(
        estimate=count, status=Status.OK, exact=True, solver_calls=calls,
        sat_answers=count, time_seconds=time.monotonic() - start)
