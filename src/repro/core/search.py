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
"""

from __future__ import annotations

from repro.core.cells import SATURATED
from repro.errors import CounterError


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
