"""The CDM baseline: Chistikov, Dimitrova and Majumdar's approximate
counter (Acta Informatica 2017), as characterised in the paper's related
work: "to obtain an approximation with a desired precision, these SMT
queries contain multiple copies of the original SMT formula, and the
hashing constraints are applied to the duplicated free variables."

Mechanics implemented here:

* **Self-composition**: the formula is copied q times over disjoint
  variables, q = ceil(2 / log2(1 + epsilon)), so that a factor-2 estimate
  of |Sol|^q yields a (1+epsilon) estimate of |Sol| after taking the q-th
  root (Stockmeyer's amplification).
* **Boolean hashing** over the union of all copies' projection bits,
  encoded as *formula-level* XOR chains (CDM predates native XOR engines;
  the constraints are bit-blasted like any other formula — this is
  exactly the structural disadvantage pact's evaluation measures).
* Median over O(log 1/delta) repetitions.

The q-fold formula size increase is why CDM times out where pact does not
(Table I / Fig. 1).

CDM is the same hashing scheme as pact with a different hash family,
threshold and formula, so :func:`cdm_count` runs pact's outer loop,
:func:`repro.core.search.approximate_count`, with a :class:`CdmMethod`.
Like pact, iterations are independent: every random draw of iteration
``i`` comes from ``SeedSequence(seed, "cdm").child(f"iteration{i}")``, so
the iterations can run serially or fan out across a process
:class:`repro.engine.pool.ExecutionPool` with bit-identical estimates.
The boundary search probes through an incremental
:class:`repro.core.ladder.HashLadder` and, in both paths'
:func:`repro.core.search.run_chain`, warm-starts from the previous
iteration's boundary — both change only the probe order, never the
(index-pure) cell counts, so estimates are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cells import SATURATED, CallCounter, saturating_count
from repro.core.ladder import HashLadder
from repro.core.result import CountResult
from repro.core.search import approximate_count, find_boundary
from repro.core.slicing import dedupe_projection, total_bits
from repro.smt.model import free_variables
from repro.smt.parser import substitute
from repro.smt.solver import SmtSolver
from repro.smt.sorts import Sort
from repro.smt.terms import (
    Equals, Not, TRUE, Term, Xor, bool_var, bv_extract, bv_val, bv_var,
    fp_var, real_var, array_var, uf,
)
from repro.utils.deadline import Deadline
from repro.utils.rng import SeedSequence

# Factor-2 pivot: thresh for eps = 1 in the standard formula.
_PIVOT = 1 + math.ceil(9.84 * (1 + 1 / 2) * (1 + 1 / 1) ** 2)


def copy_count(epsilon: float) -> int:
    """q = ceil(2 / log2(1 + epsilon)) (Stockmeyer's amplification)."""
    return max(1, math.ceil(2 / math.log2(1 + epsilon)))


def _rename(var: Term, suffix: str) -> Term:
    sort: Sort = var.sort
    name = f"{var.name}{suffix}"
    if sort.is_bool():
        return bool_var(name)
    if sort.is_bv():
        return bv_var(name, sort.width)
    if sort.is_real():
        return real_var(name)
    if sort.is_fp():
        return fp_var(name, sort.eb, sort.sb)
    if sort.is_array():
        return array_var(name, sort.index, sort.element)
    if sort.is_function():
        return uf(name, sort.domain, sort.codomain)
    raise ValueError(f"cannot rename variable of sort {sort!r}")


def compose_copies(assertions: list[Term], projection: list[Term],
                   copies: int) -> tuple[list[Term], list[list[Term]]]:
    """Build q disjoint copies of the formula.

    Returns (all assertions, per-copy projection lists).
    """
    variables: set[Term] = set()
    for assertion in assertions:
        variables |= free_variables(assertion)
    variables |= set(projection)
    composed: list[Term] = []
    projections: list[list[Term]] = []
    for copy_index in range(copies):
        suffix = f"!c{copy_index}"
        mapping = {var: _rename(var, suffix) for var in variables}
        composed.extend(substitute(a, mapping) for a in assertions)
        projections.append([mapping[var] for var in projection])
    return composed, projections


def build_cdm_solver(assertions: list[Term], projection: list[Term],
                     copies: int, *, digest: str | None = None):
    """A counting solver over the q-fold self-composition, plus its
    flattened per-copy projection list.

    The composed formula is compiled once per (problem, q) per process
    (see :mod:`repro.compile`); the memo key carries ``digest`` (the
    counter passes the *original* problem's compile key) plus
    ``("cdm", q)`` so pact and CDM artifacts for the same problem never
    collide.
    """
    from repro.compile import compiled_for
    composed, projections = compose_copies(assertions, projection, copies)
    flat_projection = [var for group in projections for var in group]
    artifact = compiled_for(composed, flat_projection, digest=digest,
                            kind="cdm", extra=(copies,))
    return SmtSolver.from_compiled(artifact), flat_projection


def _xor_hash_term(projection_vars: list[Term], rng) -> Term:
    """A Boolean XOR constraint over random projection bits, as a plain
    formula (no native engine — the CDM encoding)."""
    parity: Term | None = None
    for var in projection_vars:
        for bit in range(var.sort.width):
            if rng.random() < 0.5:
                bit_term = Equals(bv_extract(var, bit, bit), bv_val(1, 1))
                parity = bit_term if parity is None else Xor(parity,
                                                             bit_term)
    rhs = rng.random() < 0.5
    if parity is None:
        return _constant_parity(rhs)
    return parity if rhs else Not(parity)


def _constant_parity(rhs: bool) -> Term:
    return Not(TRUE) if rhs else TRUE


def cdm_iteration_estimate(solver: SmtSolver, flat_projection: list[Term],
                           seed: int, copies: int, max_index: int,
                           deadline: Deadline, calls: CallCounter,
                           iteration_index: int,
                           warm_start: int = 1) -> tuple[int, int]:
    """One CDM repetition: hash the composed space down to a small cell,
    scale back up, take the exact integer q-th root.  Returns
    ``(estimate, boundary)``; the estimate is pure given the inputs (all
    randomness from ``cdm/iteration<i>``; ``warm_start`` only reorders
    the index-pure probes), the boundary seeds the next repetition's
    warm start."""
    iteration_seeds = SeedSequence(seed, "cdm").child(
        f"iteration{iteration_index}")
    hash_cache: dict[int, Term] = {}

    def get_hash(index: int) -> Term:
        term = hash_cache.get(index)
        if term is None:
            term = _xor_hash_term(
                flat_projection,
                iteration_seeds.stream(f"hash{index}"))
            hash_cache[index] = term
        return term

    ladder = HashLadder(solver,
                        lambda s, index: s.assert_term(get_hash(index)))

    def count_at(index: int):
        ladder.set_depth(index)
        return saturating_count(solver, flat_projection,
                                _PIVOT, deadline, calls)

    try:
        boundary, cell_count, _ = find_boundary(count_at, warm_start,
                                                max_index)
    finally:
        ladder.close()
    composed_estimate = cell_count * (1 << boundary)
    return _integer_root(composed_estimate, copies), boundary


@dataclass(frozen=True)
class CdmMethod:
    """CDM with ``copies`` self-composed copies for
    :func:`repro.core.search.approximate_count`; picklable, so a fan-out
    chain runs the same :meth:`prepare` in its worker."""

    seed: int
    copies: int
    family = "cdm"
    prefix = "cdm."

    @property
    def detail(self) -> str:
        return f"q={self.copies}"

    def prepare(self, assertions, projection, digest, deadline,
                calls: CallCounter):
        """``(solver, initial, iterate)`` over the q-fold composition:
        the solver, the exact probe and one
        :func:`cdm_iteration_estimate` per ``iterate(index,
        warm_start)``."""
        solver, flat_projection = build_cdm_solver(
            assertions, projection, self.copies, digest=digest)
        max_index = total_bits(flat_projection)

        def initial():
            count = saturating_count(solver, flat_projection, _PIVOT,
                                     deadline, calls)
            # Exact count of N^q; N is its exact integer q-th root.
            return (None if count is SATURATED
                    else _integer_root(count, self.copies))

        def iterate(index: int, warm_start: int) -> tuple[int, int]:
            return cdm_iteration_estimate(
                solver, flat_projection, self.seed, self.copies, max_index,
                deadline, calls, index, warm_start=warm_start)
        return solver, initial, iterate


def cdm_count(assertions, projection: list[Term], epsilon: float = 0.8,
              delta: float = 0.2, seed: int = 1,
              timeout: float | None = None,
              iteration_override: int | None = None,
              pool=None, deadline: Deadline | None = None,
              digest: str | None = None) -> CountResult:
    """Approximate projected counting with the CDM construction.

    ``pool`` is an optional :class:`repro.engine.pool.ExecutionPool`;
    when ``cpu_parallel``, the median repetitions fan out across its workers.
    ``deadline`` optionally replaces the ``timeout``-derived deadline
    with an external (possibly cancellable) one, like ``pact_count``'s.
    """
    if isinstance(assertions, Term):
        assertions = [assertions]
    if deadline is None:
        deadline = Deadline(timeout)
    iterations = math.ceil(17 * math.log(3 / delta))
    if iteration_override is not None:
        iterations = iteration_override
    # Same guard as pact_count: duplicates double-count projection bits.
    return approximate_count(
        CdmMethod(seed, copy_count(epsilon)), list(assertions),
        dedupe_projection(list(projection)), iterations=iterations,
        digest=digest, deadline=deadline, pool=pool)


def _integer_root(value: int, degree: int) -> int:
    """Round value^(1/degree) to the nearest integer, exactly."""
    if value <= 0 or degree == 1:
        return value
    root = round(value ** (1.0 / degree))
    # Fix float drift: choose the integer whose power is closest.
    best, best_error = root, abs(root ** degree - value)
    for candidate in (root - 1, root + 1):
        if candidate >= 0:
            error = abs(candidate ** degree - value)
            if error < best_error:
                best, best_error = candidate, error
    return best
