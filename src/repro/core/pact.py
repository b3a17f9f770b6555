"""Algorithm 1 (pact) and Algorithm 2 (FixLastHash).

The main loop divides the projected solution space into cells with random
hash constraints, finds the saturation boundary with the galloping search,
sizes the boundary cell exactly, scales back up by the partition product,
and takes the median over numIt iterations for the (epsilon, delta)
guarantee.

Iterations are independent by construction: iteration ``i`` draws every
random choice from ``SeedSequence(seed, "pact/<family>").child(f"iteration{i}")``,
so the estimate of one iteration never depends on another.  That
independence is the determinism contract of the engine subsystem (see
DESIGN.md): running the iterations serially on one shared solver, or
fanned out across processes as one chain per worker, produces
bit-identical per-iteration estimates — cell counts are exact and every
random draw is a pure function of (seed, family, iteration index).  A
thread pool runs the serial chain: under the GIL it cannot run two.

Both paths run :func:`repro.core.search.run_chain` over
:func:`iteration_step`, so each boundary search warm-starts from the
previous iteration's boundary (section III-C's gallop): the boundary
and the boundary cell count are pure functions of the hash index, so
the probe order — the only thing a warm start changes — cannot change
the estimate, it only cuts the number of oracle calls.  Probes run on
an incremental :class:`repro.core.ladder.HashLadder` (one nested solver
frame per hash index) so moving the probe from index i to j re-asserts
only the ``|i - j|`` delta instead of rebuilding the whole prefix
(section III-F's incremental solving, with learnt-clause retention in
the SAT core underneath).
"""

from __future__ import annotations

import math
import time

from repro.core.cells import SATURATED, CallCounter, saturating_count
from repro.core.config import PactConfig
from repro.core.constants import get_constants
from repro.core.hashes import generate_hash
from repro.core.ladder import HashLadder
from repro.core.result import CountResult
from repro.core.search import find_boundary, run_chain
from repro.core.slicing import dedupe_projection, total_bits
from repro.errors import CounterError, ResourceBudgetError, SolverTimeoutError
from repro.sat.kernel import TELEMETRY
from repro.smt.solver import SmtSolver
from repro.status import Status
from repro.smt.terms import Term
from repro.utils.deadline import Deadline
from repro.utils.rng import SeedSequence
from repro.utils.stats import median


def compile_counting_problem(assertions: list[Term],
                             projection: list[Term], *,
                             script: str | None = None,
                             digest: str | None = None,
                             kind: str = "pact", extra: tuple = ()):
    """Compile (formula, projection) once per process (memoised).

    The memo (and artifact-store) key is ``digest`` when the caller
    already has one (fan-out specs ship it), else the digest of
    ``script``, else of the canonical serialisation printed here
    (:func:`repro.compile.canonical_digest` — one shared recipe).
    ``kind``/``extra`` distinguish derived formulas compiled under the
    same problem (CDM's q-fold composition).  Returns a
    :class:`repro.compile.CompiledProblem`.
    """
    from repro.compile import (
        canonical_digest, compile_digest, compiled_for,
    )
    if digest is None:
        digest = (compile_digest(script) if script is not None
                  else canonical_digest(assertions, projection))
    return compiled_for(assertions, projection, digest=digest,
                        kind=kind, extra=extra)


def build_solver(assertions: list[Term], projection: list[Term], *,
                 script: str | None = None,
                 digest: str | None = None) -> tuple[SmtSolver, list[int]]:
    """A counting solver plus the flat projection-bit literals the hash
    families constrain — reconstructed from the compile-once artifact
    (preprocessing and Tseitin blasting run at most once per (problem,
    params) per process; see :mod:`repro.compile`)."""
    artifact = compile_counting_problem(assertions, projection,
                                        script=script, digest=digest)
    return SmtSolver.from_compiled(artifact), artifact.flat_bits


def max_hash_index(projection: list[Term], family: str,
                   slice_width: int) -> int:
    """The search cap on the number of hash constraints."""
    bits = total_bits(projection)
    if family == "xor":
        return bits
    return math.ceil(bits / slice_width) + 2


def iteration_estimate(solver: SmtSolver, projection: list[Term],
                       flat_bits: list[int], config: PactConfig,
                       thresh: int, slice_width: int, max_index: int,
                       deadline: Deadline, calls: CallCounter,
                       iteration_index: int,
                       warm_start: int = 1) -> tuple[int, int]:
    """One iteration of Algorithm 1's main loop (lines 6-14).

    Returns ``(estimate, boundary)``; the boundary seeds the next
    iteration's ``warm_start``.  The estimate is pure given (formula,
    config, index): all randomness comes from the seed tree at
    ``pact/<family>/iteration<i>`` and the boundary/cell count are pure
    functions of the hash index, so neither ``warm_start`` (probe order)
    nor solver state (retained learnt clauses are entailed) can change
    it — the same inputs yield the same estimate on any solver instance,
    in any process.

    Hash probes run on a :class:`HashLadder`: hash j lives in nested
    frame j, so a probe moving from index i to j re-asserts only the
    ``|i - j|`` delta and the solver keeps everything it learnt about
    the shared prefix.
    """
    iteration_seeds = SeedSequence(
        config.seed, f"pact/{config.family}").child(
        f"iteration{iteration_index}")
    hash_cache: dict[int, object] = {}

    def get_hash(index: int):
        constraint = hash_cache.get(index)
        if constraint is None:
            constraint = generate_hash(
                projection, slice_width, config.family,
                iteration_seeds.stream(f"hash{index}"))
            hash_cache[index] = constraint
        return constraint

    ladder = HashLadder(
        solver, lambda s, index: get_hash(index).assert_into(s, flat_bits))

    def count_at(index: int):
        ladder.set_depth(index)
        return saturating_count(solver, projection, thresh, deadline,
                                calls)

    try:
        boundary, cell_count, _ = find_boundary(count_at, warm_start,
                                                max_index)
        if config.family == "xor":
            # One XOR halves the space; FixLastHash is a no-op
            # (Algorithm 2, line 1).
            return cell_count * (1 << boundary), boundary
        cell_count, partition_product = _fix_last_hash(
            solver, projection, flat_bits, get_hash, ladder, boundary,
            cell_count, slice_width, thresh, deadline, calls,
            iteration_seeds, config.family)
        return cell_count * partition_product, boundary
    finally:
        # Unwind the iteration's hash frames even on timeout/budget so a
        # shared serial solver is back at its root frame.
        ladder.close()


def iteration_step(solver: SmtSolver, projection: list[Term],
                   flat_bits: list[int], config: PactConfig,
                   deadline: Deadline, calls: CallCounter):
    """``iterate(index, warm_start) -> (estimate, boundary)`` for
    :func:`run_chain`: one :func:`iteration_estimate` on ``solver``,
    shared by the serial loop and the fan-out workers."""
    thresh, _, slice_width = get_constants(
        config.epsilon, config.delta, config.family)
    max_index = max_hash_index(projection, config.family, slice_width)

    def iterate(index: int, warm_start: int) -> tuple[int, int]:
        return iteration_estimate(
            solver, projection, flat_bits, config, thresh, slice_width,
            max_index, deadline, calls, index, warm_start=warm_start)
    return iterate


def pact_count(assertions: list[Term], projection: list[Term],
               config: PactConfig,
               deadline: Deadline | None = None,
               pool=None, digest: str | None = None) -> CountResult:
    """Run pact on ``assertions`` with projection set ``projection``.

    ``pool`` is an optional :class:`repro.engine.pool.ExecutionPool`;
    when it is ``cpu_parallel`` the numIt iterations fan out across its
    workers (bit-identical to the serial run, see :func:`iteration_estimate`).
    ``digest`` is an optional precomputed compile digest (the API layer
    passes :attr:`repro.api.Problem.compile_key`) so the memo lookup
    skips re-serialising the formula.
    """
    start = time.monotonic()
    if deadline is None:
        deadline = Deadline(config.timeout)
    if not projection:
        raise CounterError("projection set must not be empty")
    for var in projection:
        if not (var.is_var() and var.sort.is_bv()):
            raise CounterError(
                "projection variables must be bit-vector variables "
                "(integer projections are future work, paper section V)")
    # A duplicated variable would double-count its bits in total_bits and
    # hash the same bits twice, voiding pairwise independence.
    projection = dedupe_projection(projection)

    thresh, num_iterations, _ = get_constants(
        config.epsilon, config.delta, config.family)
    if config.iteration_override is not None:
        num_iterations = config.iteration_override

    calls = CallCounter()
    estimates: list[int] = []
    solver = None

    def finish(estimate, status=Status.OK, exact=False):
        if solver is not None:
            # One process-wide kernel-telemetry merge per count: the
            # CDCL driver's cumulative counters for this solve series.
            TELEMETRY.merge(solver.sat.stats, prefix="pact.")
        return CountResult(
            estimate=estimate, status=status, exact=exact,
            solver_calls=calls.solver_calls, sat_answers=calls.sat_answers,
            iterations=len(estimates),
            time_seconds=time.monotonic() - start,
            family=config.family, estimates=list(estimates))

    try:
        solver, flat_bits = build_solver(assertions, projection,
                                         digest=digest)

        # Line 3-4: if the whole projected space is small, count exactly.
        initial = saturating_count(solver, projection, thresh, deadline,
                                   calls)
        if initial is not SATURATED:
            return finish(initial, exact=True)

        if pool is not None and pool.cpu_parallel and num_iterations > 1:
            from repro.engine.fanout import fan_out_iterations
            status = fan_out_iterations(
                pool, "pact", assertions, projection,
                epsilon=config.epsilon, delta=config.delta,
                family=config.family, seed=config.seed,
                num_iterations=num_iterations, deadline=deadline,
                calls=calls, estimates=estimates)
            if status is not None:
                return finish(None, status=status)
        else:
            run_chain(iteration_step(solver, projection, flat_bits,
                                     config, deadline, calls),
                      range(num_iterations), estimates)

        return finish(median(estimates))
    except SolverTimeoutError:
        return finish(None, status=Status.TIMEOUT)
    except ResourceBudgetError:
        return finish(None, status=Status.BUDGET)


def _fix_last_hash(solver, projection, flat_bits, get_hash, ladder,
                   boundary, cell_count, slice_width, thresh, deadline,
                   calls, iteration_seeds, family):
    """Algorithm 2: replace the last hash with progressively coarser ones.

    The prefix H[boundary-1] stays — as ladder frames, so it is asserted
    once, not once per replacement width; each candidate last hash gets a
    scratch frame of its own on top.  The last hash is re-generated at
    halved domain widths while the refined cell stays below thresh; the
    coarsest still-small configuration maximises the cell (best
    accuracy).  Returns (cell_count, total partition product).
    """
    prefix_product = 1
    for j in range(1, boundary):
        prefix_product *= get_hash(j).partitions
    best_count = cell_count
    best_partitions = get_hash(boundary).partitions

    ladder.set_depth(boundary - 1)
    width = slice_width
    while width > 1:
        width //= 2
        replacement = generate_hash(
            projection, width, family,
            iteration_seeds.stream(f"fix{width}"))
        solver.push()
        try:
            replacement.assert_into(solver, flat_bits)
            refined = saturating_count(solver, projection, thresh,
                                       deadline, calls)
        finally:
            solver.pop()
        if refined is SATURATED:
            break
        best_count = refined
        best_partitions = replacement.partitions
    return best_count, prefix_product * best_partitions


def count_projected(assertions, projection, epsilon: float = 0.8,
                    delta: float = 0.2, family: str = "xor",
                    seed: int = 1, timeout: float | None = None,
                    iteration_override: int | None = None,
                    pool=None) -> CountResult:
    """The convenience front door: count with (epsilon, delta) guarantees.

    See :class:`repro.core.config.PactConfig` for parameter semantics;
    ``pool`` optionally fans the iterations out (see :func:`pact_count`).
    """
    if isinstance(assertions, Term):
        assertions = [assertions]
    config = PactConfig(epsilon=epsilon, delta=delta, family=family,
                        seed=seed, timeout=timeout,
                        iteration_override=iteration_override)
    return pact_count(list(assertions), list(projection), config,
                      pool=pool)
