"""Iteration fan-out: one counting iteration as a pure, picklable task.

Both counters take a median over numIt independent iterations
(Algorithm 1 line 15) — embarrassingly parallel once a single iteration
is a self-contained unit of work.  An :class:`IterationSpec` carries the
problem in its *serialised* SMT-LIB form (terms are hash-consed and
interned per process, so shipping the script text is the safe way to
cross a process boundary) **plus its artifact digest**: the worker keys
the per-process compile memo (:mod:`repro.compile.memo`) on the digest,
so preprocessing + bit-blasting run at most once per (problem, params)
per process and every later iteration clones the compiled snapshot —
the compiled artifact, not the re-parsed script, is the unit of
cross-process transfer.  Every random draw of iteration ``i`` derives
from ``SeedSequence(seed, ..., f"iteration{i}")``, so the worker
reconstructs exactly the serial run's randomness and the parallel
median is bit-identical to the serial one.

Workers memoise parsing per process keyed by that digest too; the
orchestrator pre-seeds both memos with its own objects, so the serial
and thread backends (and forked process children) never re-parse or
re-compile at all.

Workers also keep **per-worker warm-start chains**: the boundary found by
the last iteration a worker ran (keyed by problem digest and counting
parameters) seeds the next iteration's galloping search, mirroring the
serial loop's previous-boundary warm start.  Sound for the same reason:
the boundary is a pure function of the hash index, so the chain only
changes probe order, never estimates — parallel runs stay bit-identical
to serial ones.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.compile.memo import compile_digest as _digest
from repro.engine.pool import Task
from repro.sat.kernel import TELEMETRY
from repro.status import Status

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
# Every fanned-out count, session spec and scheduler slot adds an entry,
# so a long-lived process evicts oldest-first at the cap (dicts are
# insertion-ordered), under a lock because pool threads write it too.
# Re-parsing an evicted script gives the same term objects only while
# something else still holds them (terms are interned weakly).
_PARSE_CAP = 64
_parse_memo: dict[str, tuple[list, list]] = {}
_parse_lock = threading.Lock()

# Per-worker warm-start chains: (digest, algorithm, family, seed,
# epsilon, delta) -> boundary of the last iteration finished here.  A
# stale or shared hint (thread backend) is harmless — it only steers the
# galloping search's first probe.  Bounded: hints are pure heuristics,
# so a long-lived worker serving many distinct problems just drops them
# all once the map fills rather than growing forever.
_WARM_CAP = 512
_warm_starts: dict[tuple, int] = {}


def _warm_key(spec: IterationSpec) -> tuple:
    return (spec.artifact_digest(), spec.algorithm, spec.family,
            spec.seed, spec.epsilon, spec.delta)


def _remember_warm(key: tuple, boundary: int) -> None:
    if len(_warm_starts) >= _WARM_CAP and key not in _warm_starts:
        _warm_starts.clear()
    _warm_starts[key] = boundary


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
                    num_iterations: int,
                    deadline_at: float | None = None) -> list[Task]:
    """One :class:`Task` per iteration, keyed by iteration index.

    ``deadline_at`` is the run's absolute monotonic deadline: the whole
    batch shares it, so iterations dispatched late get only what is left
    of the counter's total timeout, exactly like the serial loop.
    """
    spec = make_spec(algorithm, assertions, projection, epsilon=epsilon,
                     delta=delta, family=family, seed=seed)
    return [Task(key=index, fn=_iteration_task, args=(spec, index),
                 deadline_at=deadline_at)
            for index in range(num_iterations)]


def fan_out_iterations(pool, algorithm: str, assertions, projection, *,
                       epsilon: float, delta: float, family: str,
                       seed: int, num_iterations: int, deadline, calls,
                       estimates: list) -> str | None:
    """Run a counter's iterations across ``pool``, filling ``estimates``
    in iteration order and aggregating oracle calls into ``calls``.

    Returns None when every iteration completed, the failure status
    ("timeout"/"budget") when some did not, and re-raises any other
    worker exception — mirroring the serial loop's semantics.
    """
    remaining = deadline.remaining()
    deadline_at = (None if math.isinf(remaining)
                   else time.monotonic() + remaining)
    tasks = iteration_tasks(
        algorithm, assertions, projection, epsilon=epsilon, delta=delta,
        family=family, seed=seed, num_iterations=num_iterations,
        deadline_at=deadline_at)
    status = None
    for result in pool.run(tasks):
        if result.ok:
            estimates.append(result.value["estimate"])
            calls.merge(result.value["solver_calls"],
                        result.value["sat_answers"])
        elif result.status in (Status.TIMEOUT, Status.BUDGET,
                               Status.CANCELLED):
            status = status or (Status.TIMEOUT
                                if result.status is Status.CANCELLED
                                else result.status)
        else:
            raise result.error
    return status


def run_iteration(spec: IterationSpec, iteration_index: int,
                  budget: float | None = None) -> int:
    """The pure unit of work: one iteration's estimate.

    Deterministic in (spec, iteration_index); raises
    :class:`repro.errors.SolverTimeoutError` if ``budget`` seconds elapse
    first.
    """
    return _iteration_task(spec, iteration_index,
                           budget=budget)["estimate"]


def _iteration_task(spec: IterationSpec, iteration_index: int,
                    budget: float | None = None) -> dict:
    """Worker body: estimate plus oracle-call accounting (picklable)."""
    from repro.core.cells import CallCounter
    from repro.utils.deadline import Deadline

    assertions, projection = parse_cached(spec.script)
    deadline = Deadline(budget)
    calls = CallCounter()
    if spec.algorithm == "pact":
        estimate = _pact_iteration(assertions, projection, spec,
                                   deadline, calls, iteration_index)
    elif spec.algorithm == "cdm":
        estimate = _cdm_iteration(assertions, projection, spec,
                                  deadline, calls, iteration_index)
    else:
        raise ValueError(f"unknown algorithm {spec.algorithm!r}")
    return {"estimate": estimate, "solver_calls": calls.solver_calls,
            "sat_answers": calls.sat_answers}


def _pact_iteration(assertions, projection, spec, deadline, calls,
                    iteration_index: int) -> int:
    from repro.core.config import PactConfig
    from repro.core.constants import get_constants
    from repro.core.pact import (
        build_solver, iteration_estimate, max_hash_index,
    )

    config = PactConfig(epsilon=spec.epsilon, delta=spec.delta,
                        family=spec.family, seed=spec.seed)
    thresh, _, slice_width = get_constants(
        config.epsilon, config.delta, config.family)
    solver, flat_bits = build_solver(assertions, projection,
                                     digest=spec.artifact_digest())
    max_index = max_hash_index(projection, config.family, slice_width)
    key = _warm_key(spec)
    warm = _warm_starts.get(key, 1)
    try:
        estimate, boundary = iteration_estimate(
            solver, projection, flat_bits, config, thresh, slice_width,
            max_index, deadline, calls, iteration_index, warm_start=warm)
    finally:
        # The worker's own solver: fold its kernel counters in, as
        # pact_count does for the serial one (the pool ships a process
        # worker's telemetry delta home).
        TELEMETRY.merge(solver.sat.stats, prefix="pact.")
    _remember_warm(key, boundary)
    return estimate


def _cdm_iteration(assertions, projection, spec, deadline, calls,
                   iteration_index: int) -> int:
    from repro.core.cdm import (
        build_cdm_solver, cdm_iteration_estimate, copy_count,
    )
    from repro.core.slicing import total_bits

    copies = copy_count(spec.epsilon)
    solver, flat_projection = build_cdm_solver(
        assertions, projection, copies, digest=spec.artifact_digest())
    max_index = total_bits(flat_projection)
    key = _warm_key(spec)
    warm = _warm_starts.get(key, 1)
    try:
        estimate, boundary = cdm_iteration_estimate(
            solver, flat_projection, spec.seed, copies, max_index,
            deadline, calls, iteration_index, warm_start=warm)
    finally:
        TELEMETRY.merge(solver.sat.stats, prefix="cdm.")
    _remember_warm(key, boundary)
    return estimate
