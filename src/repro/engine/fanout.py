"""Iteration fan-out: a counter's iterations as per-worker chains.

Both counters take a median over numIt independent iterations
(Algorithm 1 line 15).  The counters fan out only over a process pool
(``cpu_parallel``), splitting them into ``min(jobs, numIt)`` chains —
chain ``w`` runs iterations ``w, w + jobs, ...`` — and
each chain is one picklable task: it builds one solver and runs its
iterations through :func:`repro.core.search.run_chain` with the
counter's own iteration closure (:func:`repro.core.pact.iteration_step`,
:func:`repro.core.cdm.cdm_iteration_step`), the loop the serial counters
run.  So a chain warm-starts each search from its previous boundary on
an incremental solver exactly as the serial loop does, and
:func:`fan_out_iterations` puts the estimates back in iteration order.

An :class:`IterationSpec` holds the :class:`repro.api.Problem` itself,
which pickles as its SMT-LIB script and compile key: a process worker
parses the script into its own interned terms and compiles under the
sender's key, so a forked worker finds the artifact in the compile memo
it inherited (:mod:`repro.compile.memo`) and a spawned one compiles on
first use; every chain clones the compiled snapshot.

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
from dataclasses import dataclass

from repro.engine.pool import Task, _classify
from repro.errors import CounterError, ResourceBudgetError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.status import Status
from repro.utils.deadline import Deadline

__all__ = ["IterationSpec", "fan_out_iterations", "iteration_tasks",
           "run_iteration"]


@dataclass(frozen=True)
class IterationSpec:
    """A picklable description of one counting problem.

    ``algorithm`` is "pact" or "cdm"; ``problem`` is the
    :class:`repro.api.Problem` being counted; the remaining fields are
    the counting parameters an iteration needs.
    """

    algorithm: str
    problem: object
    epsilon: float
    delta: float
    family: str
    seed: int


def iteration_tasks(algorithm: str, assertions, projection, *,
                    epsilon: float, delta: float, family: str, seed: int,
                    num_iterations: int, jobs: int,
                    deadline_at: float | None = None) -> list[Task]:
    """``min(jobs, num_iterations)`` chain tasks, keyed by chain index:
    chain ``w`` runs iterations ``w, w + jobs, ...`` in order.

    ``deadline_at`` is the run's absolute monotonic deadline: every
    chain shares it, so a chain dispatched late gets only what is left
    of the counter's total timeout, exactly like the serial loop.
    """
    # Imported here: repro.api imports this package.
    from repro.api import Problem
    spec = IterationSpec(
        algorithm, Problem(assertions=tuple(assertions),
                           projection=tuple(projection)),
        epsilon, delta, family, seed)
    chains = min(jobs, num_iterations)
    return [Task(key=chain, fn=_chain_task,
                 args=(spec, tuple(range(chain, num_iterations, chains))),
                 deadline_at=deadline_at)
            for chain in range(chains)]


def fan_out_iterations(pool, algorithm: str, assertions, projection, *,
                       epsilon: float, delta: float, family: str,
                       seed: int, num_iterations: int, deadline, calls,
                       estimates: list) -> str | None:
    """Run a counter's iterations across ``pool`` as per-worker chains,
    filling ``estimates`` in iteration order and aggregating oracle
    calls into ``calls``.

    Every chain gets the time ``deadline`` has left.  Returns None when
    every chain completed, the failure status ("timeout"/"budget") when
    some did not, raises :class:`CounterError` for a lost worker, and
    re-raises any other worker exception — mirroring the serial loop's
    semantics.
    """
    remaining = deadline.remaining()
    deadline_at = (None if math.isinf(remaining)
                   else time.monotonic() + remaining)
    tasks = iteration_tasks(
        algorithm, assertions, projection, epsilon=epsilon, delta=delta,
        family=family, seed=seed, num_iterations=num_iterations,
        jobs=pool.jobs, deadline_at=deadline_at)
    status = None
    by_index: dict[int, int] = {}
    for task, result in zip(tasks, pool.run(tasks)):
        failed = result.status
        if result.ok:
            chain = result.value
            by_index.update(zip(task.args[1], chain["estimates"]))
            calls.merge(chain["solver_calls"], chain["sat_answers"])
            if chain["stopped"] is not None:
                failed = _classify(chain["stopped"])
        elif result.worker == f"{pool.backend}-lost":
            raise CounterError(
                f"{result.worker} worker running iteration chain "
                f"{task.key}: {type(result.error).__name__}: "
                f"{result.error}")
        elif failed is Status.ERROR:
            raise result.error
        if failed is not Status.OK:
            status = status or failed
    estimates.extend(by_index[index] for index in sorted(by_index))
    return status


def run_iteration(spec: IterationSpec, iteration_index: int,
                  budget: float | None = None) -> int:
    """The pure unit of work: one iteration's estimate, run as a
    one-iteration chain.

    Deterministic in (spec, iteration_index); raises
    :class:`repro.errors.SolverTimeoutError` if ``budget`` seconds elapse
    first.
    """
    chain = _chain_task(spec, (iteration_index,), budget=budget)
    if chain["stopped"] is not None:
        raise chain["stopped"]
    return chain["estimates"][0]


def _chain_task(spec: IterationSpec, indices: tuple,
                budget: float | None = None) -> dict:
    """Worker body: one chain's estimates plus its oracle-call
    accounting (picklable).  A chain cut short keeps what it finished,
    as the serial loop does, and returns its timeout or budget error
    under ``"stopped"``."""
    from repro.core.cells import CallCounter
    from repro.core.search import run_chain

    deadline = Deadline(budget)
    calls = CallCounter()
    solver, iterate = _chain_solver(spec, deadline, calls)
    estimates: list[int] = []
    stopped = None
    try:
        run_chain(iterate, indices, estimates)
    except (SolverTimeoutError, ResourceBudgetError) as error:
        stopped = error
    finally:
        # The chain's own solver: fold its kernel counters in, as the
        # counters do for the serial one (the pool ships a process
        # worker's telemetry delta home).
        TELEMETRY.merge(solver.sat.stats, prefix=f"{spec.algorithm}.")
    return {"estimates": estimates, "solver_calls": calls.solver_calls,
            "sat_answers": calls.sat_answers, "stopped": stopped}


def _chain_solver(spec: IterationSpec, deadline, calls):
    """The chain's solver, cloned from the compiled artifact, and the
    counter's iteration closure over it."""
    assertions = list(spec.problem.assertions)
    projection = list(spec.problem.projection)
    digest = spec.problem.compile_key
    if spec.algorithm == "pact":
        from repro.core.config import PactConfig
        from repro.core.pact import build_solver, iteration_step
        config = PactConfig(epsilon=spec.epsilon, delta=spec.delta,
                            family=spec.family, seed=spec.seed)
        solver, flat_bits = build_solver(assertions, projection,
                                         digest=digest)
        return solver, iteration_step(solver, projection, flat_bits,
                                      config, deadline, calls)
    if spec.algorithm == "cdm":
        from repro.core.cdm import (
            build_cdm_solver, cdm_iteration_step, copy_count,
        )
        copies = copy_count(spec.epsilon)
        solver, flat_projection = build_cdm_solver(
            assertions, projection, copies, digest=digest)
        return solver, cdm_iteration_step(solver, flat_projection,
                                          spec.seed, copies, deadline,
                                          calls)
    raise ValueError(f"unknown algorithm {spec.algorithm!r}")
