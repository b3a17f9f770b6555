"""The staged Problem->CNF compile pipeline.

``compile_problem`` runs three stages and returns an immutable
:class:`repro.compile.artifact.CompiledProblem`:

1. **preprocess** — the existing term pipeline (FP->BV, arrays/UF->
   Ackermann, real atoms -> Boolean abstraction), driven through a
   scratch :class:`repro.smt.solver.SmtSolver`;
2. **bitblast** — eager Tseitin blasting of the discrete core plus
   ``ensure_bits`` for every projection variable (the projection->bit
   map is fixed here, *before* simplification, so hash draws are
   independent of what the simplifier does);
3. **simplify** — projected-count-preserving CNF simplification
   (:mod:`repro.compile.simplify`), narrowed with ``stages``
   (``stages=()`` skips it: the unsimplified reference).

Counters reconstruct a solver from the artifact with
:meth:`repro.smt.solver.SmtSolver.from_compiled` — linear in the clause
database — instead of re-running stages 1-2 per iteration, worker or
portfolio arm.
"""

from __future__ import annotations

import time

from repro.compile.artifact import CompiledProblem, CompileStats
from repro.compile.simplify import STAGES, run_stages
from repro.core.slicing import dedupe_projection
from repro.errors import CounterError
from repro.smt.solver import SmtSolver
from repro.smt.terms import Term

__all__ = ["compile_problem"]


def compile_problem(assertions, projection, *, stages=STAGES,
                    digest: str = "") -> CompiledProblem:
    """Compile (assertions, projection) into a :class:`CompiledProblem`.

    ``digest`` names the artifact (callers pass the script digest the
    memo and the cache key on); ``stages`` narrows the simplifier to a
    subset of :data:`repro.compile.simplify.STAGES` (the property tests
    exercise each prefix; ``stages=()`` keeps the raw bit-blasted CNF).
    """
    start = time.monotonic()
    if isinstance(assertions, Term):
        assertions = [assertions]
    projection = dedupe_projection(list(projection))
    if not projection:
        raise CounterError("projection set must not be empty")

    # stages 1+2: preprocess + bitblast through a scratch solver
    solver = SmtSolver()
    solver.assert_all(list(assertions))
    projection_bits = []
    for var in projection:
        projection_bits.append(tuple(solver.ensure_bits(var)))
    atoms = tuple((atom, literal)
                  for atom, _linear, literal in solver.lra._atoms)
    raw = solver.sat.snapshot()

    stats = CompileStats(raw_clauses=len(raw.clauses),
                         raw_units=len(raw.units))
    flat_bits = [lit for bits in projection_bits for lit in bits]
    support = tuple(range(len(flat_bits)))

    if stages:
        frozen = {abs(lit) for lit in flat_bits}
        frozen.update(abs(literal) for _atom, literal in atoms)
        frozen.add(abs(solver.builder.true_lit))
        snapshot, support = run_stages(raw, frozen, flat_bits,
                                       stages=stages, stats=stats)
        stats.stages = tuple(stage for stage in STAGES if stage in stages)
    else:
        snapshot = raw

    stats.vars = snapshot.num_vars
    stats.clauses = len(snapshot.clauses)
    stats.xors = len(snapshot.xors)
    stats.seconds = time.monotonic() - start
    return CompiledProblem(
        digest=digest, snapshot=snapshot,
        true_lit=solver.builder.true_lit,
        projection=tuple(projection),
        projection_bits=tuple(projection_bits), atoms=atoms,
        support=support, stats=stats)
