"""Iteration fan-out: a counter's iterations as per-worker chains.

pact and CDM take a median over numIt independent iterations (Algorithm
1 line 15) in one outer loop, :func:`repro.core.search.approximate_count`,
which fans them out only over a process pool (``cpu_parallel``):
``min(jobs, numIt)`` chains, chain ``w`` running iterations
``w, w + jobs, ...``.  A chain is one picklable task ``(method, problem,
indices)``: the worker calls the counter's own ``method.prepare`` (the
one the serial loop calls) and runs :func:`repro.core.search.run_chain`,
so each search warm-starts from the chain's previous boundary on an
incremental solver, exactly as serially.  This module names no counter.

The :class:`repro.api.Problem` pickles as its SMT-LIB script and compile
key, which is the digest the counter already holds, so the formula is
printed once.  A worker parses the script into its own interned terms
and compiles under the sender's key: a forked worker finds the artifact
in the compile memo it inherited (:mod:`repro.compile.memo`), a spawned
one compiles on first use, and every chain clones the snapshot.

Every random draw of iteration ``i`` derives from ``SeedSequence(seed,
..., f"iteration{i}")`` and a warm start only reorders index-pure
probes, so the parallel median is bit-identical to the serial one.  The
split into chains depends on ``jobs`` alone, and each chain starts from
a fresh clone, so a fanned-out count's ``solver_calls`` and kernel
counters repeat exactly for a fixed ``jobs``.  A lost worker ends the
count in a :class:`repro.errors.CounterError`, never in a median over
the chains that survived.
"""

from __future__ import annotations

import math
import time

from repro.engine.pool import Task
from repro.errors import CounterError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.utils.deadline import Deadline

__all__ = ["fan_out_iterations", "iteration_tasks"]


def iteration_tasks(method, assertions, projection, *, digest: str,
                    iterations: int, jobs: int,
                    deadline_at: float | None = None) -> list[Task]:
    """``min(jobs, iterations)`` chain tasks ``(method, problem,
    indices)``, keyed by chain index: chain ``w`` runs iterations
    ``w, w + jobs, ...`` in order.

    The problem carries ``digest`` as its compile key.  ``deadline_at``
    is the run's absolute monotonic deadline: every chain shares it, so
    a chain dispatched late gets only what is left of the counter's
    total timeout, exactly like the serial loop.
    """
    # Imported here: repro.api imports this package.
    from repro.api import Problem
    problem = Problem(assertions=tuple(assertions),
                      projection=tuple(projection))
    vars(problem)["compile_key"] = digest
    chains = min(jobs, iterations)
    return [Task(key=chain, fn=_chain_task,
                 args=(method, problem,
                       tuple(range(chain, iterations, chains))),
                 deadline_at=deadline_at)
            for chain in range(chains)]


def fan_out_iterations(pool, method, assertions, projection, *,
                       digest: str, iterations: int, deadline, calls,
                       estimates: list) -> None:
    """Run a counter's iterations across ``pool`` as per-worker chains,
    filling ``estimates`` in iteration order and aggregating oracle
    calls into ``calls``.

    Every chain gets the time ``deadline`` has left.  Like the serial
    loop, raises :class:`SolverTimeoutError` when some chain ran out of
    time (after recording what every chain finished); raises
    :class:`CounterError` for a lost worker and re-raises any other
    worker exception.
    """
    remaining = deadline.remaining()
    deadline_at = (None if math.isinf(remaining)
                   else time.monotonic() + remaining)
    tasks = iteration_tasks(method, assertions, projection, digest=digest,
                            iterations=iterations, jobs=pool.jobs,
                            deadline_at=deadline_at)
    timed_out = False
    by_index: dict[int, int] = {}
    for task, result in zip(tasks, pool.run(tasks)):
        if result.ok:
            chain = result.value
            by_index.update(zip(task.args[2], chain["estimates"]))
            calls.merge(chain["solver_calls"], chain["sat_answers"])
            timed_out = timed_out or chain["timed_out"]
        elif result.worker == f"{pool.backend}-lost":
            raise CounterError(
                f"{result.worker} worker running iteration chain "
                f"{task.key}: {type(result.error).__name__}: "
                f"{result.error}")
        elif isinstance(result.error, SolverTimeoutError):
            timed_out = True  # drained: the deadline passed in the queue
        else:
            raise result.error
    estimates.extend(by_index[index] for index in sorted(by_index))
    if timed_out:
        raise SolverTimeoutError("an iteration chain ran out of time")


def _chain_task(method, problem, indices: tuple,
                budget: float | None = None) -> dict:
    """Worker body: one chain's estimates plus its oracle-call
    accounting (picklable).  A chain cut short keeps what it finished,
    as the serial loop does, and says so under ``"timed_out"``."""
    from repro.core.cells import CallCounter
    from repro.core.search import run_chain

    deadline = Deadline(budget)
    calls = CallCounter()
    solver, _, iterate = method.prepare(
        list(problem.assertions), list(problem.projection),
        problem.compile_key, deadline, calls)
    estimates: list[int] = []
    timed_out = False
    try:
        run_chain(iterate, indices, estimates)
    except SolverTimeoutError:
        timed_out = True
    finally:
        # The chain's own solver: fold its kernel counters in, as the
        # shared loop does for the serial one (the pool ships a process
        # worker's telemetry delta home).
        TELEMETRY.merge(solver.sat.stats, prefix=method.prefix)
    return {"estimates": estimates, "solver_calls": calls.solver_calls,
            "sat_answers": calls.sat_answers, "timed_out": timed_out}
