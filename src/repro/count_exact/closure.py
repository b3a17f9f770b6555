"""Eager LRA theory closure: make the Boolean abstraction exact.

A :class:`repro.compile.CompiledProblem` of an LRA-carrying logic keeps
its real atoms *lazy*: each atom ``sum(c_i * r_i) <= k`` is abstracted
to a SAT literal, and the DPLL(T) loop blocks infeasible polarity
combinations one conflict at a time.  A clause-DB counter cannot run
that loop — it never produces full SAT models to hand to simplex — so
counting over the raw CNF would over-approximate: Boolean solutions
whose atom polarities are LRA-infeasible must not be counted.

This module closes the gap eagerly.  The real variables occur *only*
inside the atoms (the preprocessor guarantees it — everything else is
bit-blasted), so an assignment of the atom literals extends to a real
model exactly when the corresponding set of linear constraints is
simplex-feasible.  Blocking every infeasible polarity vector with its
simplex conflict clause therefore yields a CNF whose projected count
equals the SMT projected count — the *theory closure*.

Only the vectors the artifact leaves open are checked: an atom whose
literal is a root unit of the snapshot is held at that polarity.  A
vector disagreeing with a root unit has no Boolean model, so there is
nothing to block; and a conflict clause found under the unit
polarities is a theory lemma all the same (simplex refutes the
constraint subset it names whatever the other atoms do), so it stays
sound when added to the CNF.  With ``open`` unheld atoms the closure
takes at most ``2^open`` simplex checks instead of ``2^k``.

Each simplex conflict is a (usually small) subset of the participating
polarities, so one blocking clause prunes a whole cube of vectors; the
enumeration skips vectors an earlier clause already blocks, which keeps
the number of simplex calls well below ``2^open`` in practice.  The
open atoms are capped (:data:`MAX_CLOSURE_ATOMS`): the closure is meant
for the handful of abstraction atoms compilation leaves behind, not as
a general LRA decision procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CounterError
from repro.smt.theories.lra.theory import LraTheory

__all__ = ["ClosureStats", "MAX_CLOSURE_ATOMS", "lra_closure"]

# 2^16 simplex checks worst case — a few seconds; beyond that the eager
# closure is the wrong tool and the counter refuses rather than stalls.
MAX_CLOSURE_ATOMS = 16


@dataclass
class ClosureStats:
    """Accounting for one closure construction."""

    atoms: int = 0
    checks: int = 0
    infeasible: int = 0
    clauses: list[list[int]] = field(default_factory=list)


def lra_closure(atoms, units=(), max_atoms: int = MAX_CLOSURE_ATOMS,
                deadline=None) -> ClosureStats:
    """Blocking clauses making the atoms' Boolean abstraction exact.

    ``atoms`` is the artifact's ``(atom term, SAT literal)`` table and
    ``units`` its snapshot's root units; an atom whose literal (or its
    negation) is a unit is held at that polarity.  Returns a
    :class:`ClosureStats` whose ``clauses`` (over the atom literals)
    block exactly the LRA-infeasible polarity vectors that agree with
    ``units``.  Raises :class:`CounterError` when more than
    ``max_atoms`` atoms are open.  ``deadline`` is polled through the
    enumeration (up to ``2^open`` simplex checks), so a portfolio
    cancel or a short budget cuts the closure short instead of blocking
    past it.
    """
    stats = ClosureStats(atoms=len(atoms))
    if not atoms:
        return stats
    held = {abs(lit): lit > 0 for lit in units}
    polarity = {}
    open_vars = []
    for _atom, literal in atoms:
        var = abs(literal)
        if var in held:
            polarity[var] = held[var]
        else:
            open_vars.append(var)
    if len(open_vars) > max_atoms:
        raise CounterError(
            f"exact:cc supports at most {max_atoms} open LRA atoms "
            f"(got {len(open_vars)}); use the enum counter for this "
            f"problem")
    theory = LraTheory()
    for atom, literal in atoms:
        theory.register(atom, literal)

    def model_value(lit: int) -> bool:
        value = polarity[abs(lit)]
        return (not value) if lit < 0 else value

    for vector in range(1 << len(open_vars)):
        if deadline is not None and vector % 64 == 0:
            deadline.check()
        # polarity of open atom i in this candidate vector
        for bit, var in enumerate(open_vars):
            polarity[var] = bool((vector >> bit) & 1)
        # Skip vectors an earlier conflict clause already rules out; a
        # new clause is falsified by its own vector, so none repeats.
        if any(all(not model_value(lit) for lit in clause)
               for clause in stats.clauses):
            continue
        stats.checks += 1
        feasible, payload = theory.check(model_value)
        if feasible:
            continue
        stats.infeasible += 1
        stats.clauses.append(sorted(payload))
    return stats
