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

:func:`pact_count` runs :func:`repro.core.search.approximate_count`
(the outer loop pact shares with CDM) with a :class:`PactMethod`, so
serial and fanned-out iterations alike run ``run_chain`` over
:meth:`PactMethod.prepare`'s closure, and each boundary search
warm-starts from the previous iteration's boundary (section III-C's
gallop): the boundary and the boundary cell count are pure functions
of the hash index, so the probe order — the only thing a warm start
changes — cannot change the estimate, it only cuts the number of oracle
calls.  Probes run on an incremental :class:`repro.core.ladder.HashLadder`
(one nested solver frame per hash index) so moving the probe from index
i to j re-asserts only the ``|i - j|`` delta instead of rebuilding the
whole prefix (section III-F's incremental solving, with learnt-clause
retention in the SAT core underneath).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cells import SATURATED, CallCounter, saturating_count
from repro.core.config import PactConfig
from repro.core.constants import get_constants
from repro.core.hashes import generate_hash
from repro.core.ladder import HashLadder
from repro.core.result import CountResult
from repro.core.search import approximate_count, find_boundary
from repro.core.slicing import dedupe_projection, total_bits
from repro.errors import CounterError
from repro.smt.solver import SmtSolver
from repro.smt.terms import Term
from repro.utils.deadline import Deadline
from repro.utils.rng import SeedSequence


def build_solver(assertions: list[Term], projection: list[Term], *,
                 digest: str | None = None) -> tuple[SmtSolver, list[int]]:
    """A counting solver plus the flat projection-bit literals the hash
    families constrain — reconstructed from the compile-once artifact
    (preprocessing and Tseitin blasting run at most once per (problem,
    params) per process; see :mod:`repro.compile`)."""
    from repro.compile import compiled_for
    artifact = compiled_for(assertions, projection, digest=digest)
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


@dataclass(frozen=True)
class PactMethod:
    """Algorithm 1 under ``config`` for
    :func:`repro.core.search.approximate_count`; picklable, so a fan-out
    chain runs the same :meth:`prepare` in its worker."""

    config: PactConfig
    prefix = "pact."
    detail = ""

    @property
    def family(self) -> str:
        return self.config.family

    def prepare(self, assertions, projection, digest, deadline,
                calls: CallCounter):
        """``(solver, initial, iterate)``: the counting solver, the exact
        probe of lines 3-4 and one :func:`iteration_estimate` per call
        of ``iterate(index, warm_start)``."""
        config = self.config
        solver, flat_bits = build_solver(assertions, projection,
                                         digest=digest)
        thresh, _, slice_width = get_constants(
            config.epsilon, config.delta, config.family)
        max_index = max_hash_index(projection, config.family, slice_width)

        def initial():
            count = saturating_count(solver, projection, thresh, deadline,
                                     calls)
            return None if count is SATURATED else count

        def iterate(index: int, warm_start: int) -> tuple[int, int]:
            return iteration_estimate(
                solver, projection, flat_bits, config, thresh, slice_width,
                max_index, deadline, calls, index, warm_start=warm_start)
        return solver, initial, iterate


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
    if deadline is None:
        deadline = Deadline(config.timeout)
    if not projection:
        raise CounterError("projection set must not be empty")
    _, iterations, _ = get_constants(config.epsilon, config.delta,
                                     config.family)
    if config.iteration_override is not None:
        iterations = config.iteration_override
    # A duplicated variable would double-count its bits in total_bits and
    # hash the same bits twice, voiding pairwise independence.
    return approximate_count(
        PactMethod(config), assertions, dedupe_projection(projection),
        iterations=iterations, digest=digest, deadline=deadline,
        pool=pool)


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
