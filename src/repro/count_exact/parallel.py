"""Component-parallel exact counting: specs, workers, dispatch.

The serial search already factors the count into independent
subproblems — the top-level connected components of the residual
formula after root propagation.  This module ships those subproblems
across a process :class:`repro.engine.pool.ExecutionPool` (the only
kind that splits a count: only processes run Python at the same time):

* a :class:`ComponentSpec` is the picklable image of one subproblem —
  the component's residual constraints verbatim (global variable ids,
  no renaming, so worker cache keys equal parent cache keys), the cube
  literals (see below), the projection bits it contains and the shared
  component store's path (:class:`~repro.serve.store.SqliteStore`);
* :func:`count_component_task` is the module-level worker the process
  backend can import: it rebuilds a
  :class:`~repro.sat.kernel.ComponentDriver` from the spec and runs the
  ordinary serial search on it (:func:`~repro.count_exact.counter.count_snapshot`
  with ``presolve=False``);
* :func:`count_parallel` is the parent-side driver: split, consult the
  warmed cache, dispatch the misses, multiply.

**Cube-and-conquer.**  One giant component would serialise the whole
count again, so a component whose projected support exceeds
``SPLIT_SUPPORT`` bits is split into ``2**k`` cubes over its ``k``
highest-occurrence projection bits (the same ranking the branching
heuristic uses).  Cubes partition the projected solution space, so the
cube counts *sum* to the component count — which the parent then
records and flushes under the component's own signature.

**Why the fan-out is sound.**  Every worker runs a complete,
independent search over exactly its residual subformula: its learnt
clauses derive from that subformula alone, its internal cache obeys
the same purge-on-zero discipline, and its root result is therefore
the exact count of the shipped component (or cube) no matter what any
sibling worker concludes.  Multiplying (and summing, within a cube
group) exact integers is order-independent, so parallel counts are
bit-identical to serial counts by construction — and asserted to be,
in the differential tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.count_exact.counter import CcStats, count_snapshot
from repro.count_exact.signature import (
    component_signature, projection_occurrences,
)
from repro.engine.pool import Task
from repro.errors import CounterError, SolverTimeoutError
from repro.sat.kernel import SatSnapshot
from repro.status import Status

__all__ = ["ComponentSpec", "count_component_task", "count_parallel"]

# Components with at most this many projection bits stay whole; wider
# ones are cube-split so one giant component cannot serialise the run.
SPLIT_SUPPORT = 12
_MAX_CUBE_BITS = 4


@dataclass(frozen=True)
class ComponentSpec:
    """One picklable component subproblem (global variable ids).

    ``units`` are the cube literals (empty for a whole component);
    ``projection`` is the sorted tuple of projection bits the component
    contains — the global projection set restricted to it, which is all
    a worker can ever branch on.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    xors: tuple[tuple[tuple[int, ...], bool], ...]
    units: tuple[int, ...]
    projection: tuple[int, ...]
    store_path: str | None = None


def count_component_task(spec: ComponentSpec,
                         budget: float | None = None) -> dict:
    """Pool worker: count one shipped component (or cube) exactly.

    Returns a picklable payload — the count, the worker's additive
    :class:`~repro.count_exact.counter.CcStats` image (the parent folds
    it into its own stats, so ``--stats`` totals are
    backend-independent) and the completion status.  Cooperative
    timeouts come back as payloads too, so partial stats survive.
    """
    stats = CcStats()
    snapshot = SatSnapshot(spec.num_vars, spec.clauses, spec.units,
                           spec.xors, ok=True)
    result = count_snapshot(snapshot, spec.projection, timeout=budget,
                            component_store=spec.store_path,
                            presolve=False, stats=stats)
    return {"status": result.status, "count": result.estimate,
            "stats": stats.as_dict()}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def count_parallel(search, scope, pool, deadline, store_path,
                   remote: CcStats) -> int:
    """The parallel top level: split ``scope``, dispatch component
    misses over ``pool``, multiply.

    ``remote`` accumulates the workers' stats images (the caller folds
    it into the run's stats after the local driver's own counters, so
    the process-wide telemetry is not double counted).  Raises
    :class:`SolverTimeoutError` when any subproblem ran out of budget —
    a partial product is never returned as a count — and
    :class:`CounterError` naming the component when a worker was lost.
    """
    driver = search.driver
    stats = search.stats
    components, free = driver.split(scope)
    free_projection = sum(1 for var in free if var in search.projection)
    stats.free_bits += free_projection
    result = 1 << free_projection
    if not components:
        return result

    counts: list[int | None] = []
    signatures: list[tuple] = []
    tasks: list[Task] = []
    deadline_at = _deadline_at(deadline)
    for index, component in enumerate(components):
        stats.components += 1
        signature = component_signature(driver.db, driver.values,
                                        component)
        signatures.append(signature)
        cached = search.cache.get(signature)
        if cached is not None:
            if signature in search.seeded:
                stats.store_hits += 1
            else:
                stats.cache_hits += 1
            counts.append(cached)
            continue
        stats.cache_misses += 1
        counts.append(None)
        specs = _component_specs(driver, component, signature,
                                 search.projection, pool.jobs,
                                 store_path)
        tasks.extend(
            Task(key=(index, cube), fn=count_component_task,
                 args=(spec,), deadline_at=deadline_at)
            for cube, spec in enumerate(specs))

    if tasks:
        stats.dispatched += len(tasks)
        partial: dict[int, int] = {}
        timed_out = False
        for task_result in pool.run(tasks):
            index, _cube = task_result.key
            if task_result.status is Status.TIMEOUT:
                timed_out = True
                continue
            if not task_result.ok:
                error = task_result.error
                if task_result.worker == f"{pool.backend}-lost":
                    raise CounterError(
                        f"{task_result.worker} worker counting component "
                        f"{index}: {type(error).__name__}: {error}")
                if isinstance(error, BaseException):
                    raise error
                raise CounterError(
                    f"component subproblem failed: {error!r}")
            payload = task_result.value
            remote.merge(payload["stats"])
            if Status.coerce(payload["status"]) is not Status.OK:
                timed_out = True
                continue
            partial[index] = partial.get(index, 0) + payload["count"]
        if timed_out:
            raise SolverTimeoutError(
                "component subproblem deadline exceeded")
        for index, total in partial.items():
            counts[index] = total
            # Exact by construction (complete independent searches), so
            # it enters the cache/flush log like any surviving entry —
            # this is also how a cube-split component's summed count
            # reaches the store, which no single worker ever sees.
            search.record(signatures[index], total)

    for count in counts:
        result *= count
    return result


def _deadline_at(deadline) -> float | None:
    """The batch's absolute monotonic deadline for the pool (None when
    unlimited)."""
    remaining = deadline.remaining()
    if remaining == float("inf"):
        return None
    return time.monotonic() + remaining


def _component_specs(driver, component, signature, projection, jobs,
                     store_path):
    """The spec (or cube specs) for one component miss.

    The component's residual constraints are read off the driver
    verbatim — the residual *is* the subformula, so the worker's
    root-level cache keys coincide with the parent's.
    """
    clauses = []
    xors = []
    for cid in component.constraints:
        residual = driver.residual(cid)
        if residual is None:
            continue
        if residual[0] == "c":
            clauses.append(residual[1])
        else:
            xors.append((residual[1], residual[2]))
    occurrences = projection_occurrences(signature, projection)
    base = dict(num_vars=driver.db.num_vars, clauses=tuple(clauses),
                xors=tuple(xors),
                projection=tuple(sorted(occurrences)),
                store_path=store_path)
    if len(occurrences) <= SPLIT_SUPPORT:
        return [ComponentSpec(units=(), **base)]
    ranked = sorted(occurrences, key=lambda var: (-occurrences[var], var))
    width = min(_cube_width(jobs), len(ranked))
    cube_vars = ranked[:width]
    return [ComponentSpec(units=tuple(
                var if bits >> position & 1 else -var
                for position, var in enumerate(cube_vars)), **base)
            for bits in range(1 << width)]


def _cube_width(jobs: int) -> int:
    """Cube bits per oversized component: the smallest ``k`` with
    ``2**k >= jobs`` (capped — cube counts sum, so oversplitting only
    costs dispatch overhead)."""
    width = max(1, (max(jobs, 2) - 1).bit_length())
    return min(width, _MAX_CUBE_BITS)
