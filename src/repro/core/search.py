"""NextIndex: galloping search over the number of hash functions
(section III-C).

The list C is sparse; ``C[i]`` is the (saturating) cell count after i hash
functions.  C[0] is saturated (otherwise pact already returned exactly).
The search finds the boundary index i* with C[i*-1] saturated and
C[i*] < thresh using O(log |S|) cell counts: gallop (double upward /
halve downward) from ``start``, then bisect the bracketed range.

:func:`run_chain` is the one iteration loop, serial or per fan-out
worker: it starts each search at the boundary the previous iteration
found.  Boundaries barely move between iterations, so the gallop
usually brackets the new boundary within a couple of probes instead of
doubling up from index 1.  ``start`` only changes which indices get
probed — C is a fixed (per-iteration) function of the index — so the
boundary and its cell count are independent of it.

:func:`approximate_count` is the outer loop pact (Algorithm 1) and the
CDM baseline share: the exact probe of line 3, numIt iterations (serial
or fanned out), the median of line 15 and the result.  A counter brings
its hashes, threshold and solver as a picklable method object
(:class:`repro.core.pact.PactMethod`, :class:`repro.core.cdm.CdmMethod`).
"""

from __future__ import annotations

import time

from repro.core.cells import SATURATED, CallCounter
from repro.core.result import CountResult
from repro.errors import CounterError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.smt.printer import print_term
from repro.status import Status
from repro.utils.stats import median


def find_boundary(count_at, start: int, max_index: int
                  ) -> tuple[int, int, dict]:
    """Locate the saturation boundary, galloping from ``start``.

    ``count_at(i)`` returns the (saturating) count with i hash functions;
    it is memoised here so repeated probes are free.  ``start`` is a
    warm-start hint (typically the previous iteration's boundary,
    clamped into [1, max_index]): a good hint shortens the gallop, a bad
    one only costs extra probes — the returned boundary is the same for
    every ``start``.  Returns ``(index, cell_count, cache)`` with
    cache[index] = cell_count < thresh and cache[index - 1] = SATURATED
    (index >= 1).
    """
    if max_index < 1:
        raise CounterError("no hash indices available (empty projection?)")
    cache: dict[int, object] = {0: SATURATED}

    def probe(i: int):
        if i not in cache:
            cache[i] = count_at(i)
        return cache[i]

    index = min(max(1, start), max_index)
    if probe(index) is SATURATED:
        # Gallop upward: double until a small cell appears.
        low = index  # known saturated
        while True:
            if index == max_index:
                raise CounterError(
                    "cell still saturated with the maximum number of "
                    "hashes; projection space too large for the search cap")
            index = min(index * 2, max_index)
            if probe(index) is not SATURATED:
                high = index
                break
            low = index
    else:
        # Gallop downward: halve until a saturated cell appears, keeping
        # the bracket tight — every non-saturated probe is a better high.
        high = index  # known small
        low = index
        while True:
            low //= 2
            if probe(low) is SATURATED:
                break
            high = low
        # low is saturated, high is small
    # Bisect the boundary: smallest i in (low, high] with a small cell.
    while high - low > 1:
        middle = (low + high) // 2
        if probe(middle) is SATURATED:
            low = middle
        else:
            high = middle
    return high, cache[high], cache


def run_chain(iterate, indices, estimates: list) -> None:
    """Run the iterations ``indices`` in order, appending each estimate
    to ``estimates`` (so a timeout keeps the finished ones).

    ``iterate(index, warm_start)`` runs one iteration and returns
    ``(estimate, boundary)``; each search starts at the boundary the
    previous one found (1 for the first).
    """
    warm_start = 1
    for index in indices:
        estimate, warm_start = iterate(index, warm_start)
        estimates.append(estimate)


def approximate_count(method, assertions, projection, *, iterations: int,
                      digest: str | None, deadline, pool) -> CountResult:
    """Count with a hashing ``method``.

    ``method.prepare(assertions, projection, digest, deadline, calls)``
    returns ``(solver, initial, iterate)``: the solver, ``initial()``
    (the exact count of a small projected space, else None) and the
    :func:`run_chain` closure.  A ``cpu_parallel`` pool runs the
    iterations as chains that call the same ``prepare`` in its workers;
    otherwise they run as one chain on ``solver``.  ``digest`` (the
    compile key; by default the terms' canonical digest) is resolved
    once, here, so a fan-out need not print the formula to re-key it.
    """
    start = time.monotonic()
    for var in projection:
        if not (var.is_var() and var.sort.is_bv()):
            raise CounterError(
                f"projection variable {print_term(var)} is not a "
                "bit-vector variable (integer projections are future "
                "work, paper section V)")
    if digest is None:
        # Imported here: repro.compile imports this package.
        from repro.compile import canonical_digest
        digest = canonical_digest(assertions, projection)
    calls = CallCounter()
    estimates: list[int] = []
    solver = None
    estimate, status, exact = None, Status.OK, False
    try:
        solver, initial, iterate = method.prepare(
            assertions, projection, digest, deadline, calls)
        # Lines 3-4: a small projected space is counted exactly.
        estimate = initial()
        exact = estimate is not None
        if not exact:
            if pool is not None and pool.cpu_parallel and iterations > 1:
                from repro.engine.fanout import fan_out_iterations
                fan_out_iterations(
                    pool, method, assertions, projection, digest=digest,
                    iterations=iterations, deadline=deadline, calls=calls,
                    estimates=estimates)
            else:
                run_chain(iterate, range(iterations), estimates)
            estimate = median(estimates)
    except SolverTimeoutError:
        estimate, status = None, Status.TIMEOUT
    if solver is not None:
        # One process-wide kernel-telemetry merge per count: the CDCL
        # driver's cumulative counters for this solve series.
        TELEMETRY.merge(solver.sat.stats, prefix=method.prefix)
    return CountResult(
        estimate=estimate, status=status, exact=exact,
        solver_calls=calls.solver_calls, sat_answers=calls.sat_answers,
        iterations=len(estimates), time_seconds=time.monotonic() - start,
        family=method.family, detail=method.detail,
        estimates=list(estimates))
