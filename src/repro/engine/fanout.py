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

An :class:`IterationSpec` carries the problem in its *serialised*
SMT-LIB form (terms are hash-consed and interned per process, so
shipping the script text is the safe way to cross a process boundary)
**plus its artifact digest**: the worker keys the per-process compile
memo (:mod:`repro.compile.memo`) on the digest, so preprocessing +
bit-blasting run at most once per (problem, params) per process and
every chain clones the compiled snapshot — the compiled artifact, not
the re-parsed script, is the unit of cross-process transfer.

Every random draw of iteration ``i`` derives from ``SeedSequence(seed,
..., f"iteration{i}")`` and a warm start only reorders index-pure
probes, so the parallel median is bit-identical to the serial one.  The
split into chains depends on ``jobs`` alone, and each chain starts from
a fresh clone, so a fanned-out count's ``solver_calls`` and kernel
counters repeat exactly for a fixed ``jobs``.  A lost worker ends the
count in a :class:`repro.errors.CounterError`, never in a median over
the chains that survived.

Workers memoise parsing per process keyed by that digest too; the
orchestrator pre-seeds both memos with its own objects, so forked
children never re-parse or re-compile at all.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.compile.memo import compile_digest as _digest
from repro.engine.pool import Task, _classify
from repro.errors import CounterError, ResourceBudgetError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.status import Status
from repro.utils.deadline import Deadline

__all__ = ["IterationSpec", "fan_out_iterations", "iteration_tasks",
           "make_spec", "parse_cached", "preseed_parse_memo",
           "run_iteration"]


@dataclass(frozen=True)
class IterationSpec:
    """A picklable description of one counting problem.

    ``algorithm`` is "pact" or "cdm"; ``script`` is the full SMT-LIB
    serialisation (declarations, ``:projected-vars``, assertions);
    the remaining fields are the counting parameters an iteration needs.
    ``digest`` is the script's artifact digest, computed once by
    :func:`make_spec` and shipped with the spec: workers key the
    per-process compile memo (and the parse memo) on it directly, so
    the compiled artifact — not the re-parsed script — is the unit of
    cross-process transfer.
    """

    algorithm: str
    script: str
    epsilon: float
    delta: float
    family: str
    seed: int
    digest: str = ""

    def artifact_digest(self) -> str:
        return self.digest or _digest(self.script)


# Per-process parse memo: script digest -> (assertions, projection).
# Every fanned-out count and session spec adds an entry, so a
# long-lived process evicts oldest-first at the cap (dicts are
# insertion-ordered), under a lock because pool threads write it too.
# Re-parsing an evicted script gives the same term objects only while
# something else still holds them (terms are interned weakly).
_PARSE_CAP = 64
_parse_memo: dict[str, tuple[list, list]] = {}
_parse_lock = threading.Lock()


def _remember_parse(key: str, parsed: tuple[list, list]) -> tuple:
    """Store ``parsed`` unless ``key`` is already held; the held entry."""
    with _parse_lock:
        held = _parse_memo.get(key)
        if held is not None:
            return held
        while len(_parse_memo) >= _PARSE_CAP:
            _parse_memo.pop(next(iter(_parse_memo)))
        _parse_memo[key] = parsed
        return parsed


def parse_cached(script: str) -> tuple[list, list]:
    """(assertions, projection) of ``script``, memoised per process."""
    key = _digest(script)
    with _parse_lock:
        cached = _parse_memo.get(key)
    if cached is None:
        from repro.smt.parser import parse_script
        parsed = parse_script(script)
        cached = _remember_parse(
            key, (list(parsed.assertions), list(parsed.projection)))
    return cached


def preseed_parse_memo(script: str, assertions, projection) -> None:
    """Seed the per-process memo with already-built terms so in-process
    (and forked) workers never re-parse ``script``."""
    _remember_parse(_digest(script), (list(assertions), list(projection)))


def make_spec(algorithm: str, assertions, projection, *, epsilon: float,
              delta: float, family: str, seed: int) -> IterationSpec:
    """Build a spec from in-memory terms, pre-seeding the parse memo so
    in-process workers reuse the original term objects.  The artifact
    digest is computed here, once, and travels with the spec."""
    from repro.smt.printer import write_script
    script = write_script(list(assertions), projection=list(projection))
    preseed_parse_memo(script, assertions, projection)
    return IterationSpec(algorithm=algorithm, script=script,
                         epsilon=epsilon, delta=delta, family=family,
                         seed=seed, digest=_digest(script))


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
    spec = make_spec(algorithm, assertions, projection, epsilon=epsilon,
                     delta=delta, family=family, seed=seed)
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

    assertions, projection = parse_cached(spec.script)
    deadline = Deadline(budget)
    calls = CallCounter()
    solver, iterate = _chain_solver(spec, assertions, projection,
                                    deadline, calls)
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


def _chain_solver(spec: IterationSpec, assertions, projection, deadline,
                  calls):
    """The chain's solver, cloned from the compiled artifact, and the
    counter's iteration closure over it."""
    digest = spec.artifact_digest()
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
