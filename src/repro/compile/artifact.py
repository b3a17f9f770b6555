"""The compiled counting problem: one immutable artifact per formula.

A :class:`CompiledProblem` is everything a counting solver needs to come
up without re-running preprocessing or bit-blasting:

* a :class:`repro.sat.kernel.SatSnapshot` — the CNF clause database plus
  native XOR rows after the staged pipeline (preprocess -> bitblast ->
  simplify);
* the projection->bit map — for every projection variable, its SAT
  literals LSB first, exactly as :meth:`SmtSolver.ensure_bits` produced
  them (the hash families index into the flattened list, so the map is
  part of the artifact's identity);
* the LRA Boolean-abstraction atom table — (real atom term, SAT literal)
  pairs the lazy DPLL(T) loop re-registers into a fresh
  :class:`repro.smt.theories.lra.theory.LraTheory`;
* theory-reconstruction metadata: the builder's constant-true literal
  and the compile statistics.

The artifact is immutable and cheap to share within a process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sat.kernel import SatSnapshot
from repro.smt.terms import Term


@dataclass
class CompileStats:
    """Accounting for one run of the compile pipeline."""

    vars: int = 0
    clauses: int = 0
    xors: int = 0
    # pre-simplification sizes (equal to the above with stages=())
    raw_clauses: int = 0
    raw_units: int = 0
    # per-stage effect counters, summed over every round of the bve/bce
    # fixpoint; dropped duplicate clauses count under clauses_removed
    units_fixed: int = 0
    literals_substituted: int = 0
    failed_literals: int = 0
    aux_eliminated: int = 0
    blocked_clauses: int = 0
    clauses_removed: int = 0
    clauses_added: int = 0
    # projection-support minimisation (analysis stage)
    support_total: int = 0
    support_fixed: int = 0
    support_free: int = 0
    support_aliased: int = 0
    stages: tuple[str, ...] = ()
    seconds: float = 0.0


@dataclass(frozen=True)
class CompiledProblem:
    """An immutable Problem->CNF compilation artifact.

    ``projection`` and ``projection_bits`` are aligned: variable i's SAT
    literals are ``projection_bits[i]``, LSB first.  ``support`` is the
    minimised projection support — the bit positions (indices into
    :attr:`flat_bits`) an external counter must still project onto after
    dropping bits the simplifier proved fixed or aliased; internal
    counters keep hashing the full ``flat_bits`` list so random draws
    do not depend on which simplification stages ran.
    """

    digest: str
    snapshot: SatSnapshot
    true_lit: int
    projection: tuple[Term, ...]
    projection_bits: tuple[tuple[int, ...], ...]
    atoms: tuple[tuple[Term, int], ...] = ()
    support: tuple[int, ...] = ()
    stats: CompileStats = field(default_factory=CompileStats)

    # ------------------------------------------------------------------
    @property
    def flat_bits(self) -> list[int]:
        """All projection literals, flattened in projection order — the
        list the hash families index into."""
        return [lit for bits in self.projection_bits for lit in bits]

    @property
    def num_vars(self) -> int:
        return self.snapshot.num_vars

    def clause_db(self, extra_clauses=()):
        """The artifact as an occurrence-indexed kernel
        :class:`repro.sat.kernel.ClauseDB` (the storage the exact
        counter's component driver searches over).  ``extra_clauses``
        are appended verbatim — the LRA closure path."""
        from repro.sat.kernel import ClauseDB
        return ClauseDB.from_snapshot(self.snapshot,
                                      extra_clauses=extra_clauses)

    def to_dimacs(self) -> str:
        """The artifact as DIMACS CNF(+XOR) with ``c p show`` lines.

        Root units are emitted as unit clauses; the show lines carry the
        *minimised* projection support (:attr:`support`), so an external
        model counter consuming ``pact compile`` output projects onto
        exactly the bits whose values are not already determined.
        """
        from repro.sat.dimacs import write_dimacs
        flat = self.flat_bits
        show = sorted({abs(flat[position]) for position in self.support})
        stats = self.stats
        comments = [
            f"pact compile artifact {self.digest[:16]}",
            f"stages={','.join(stats.stages) or 'none'}",
            f"projection: {len(flat)} bits over "
            f"{len(self.projection)} variables; support "
            f"{len(self.support)} bits "
            f"(fixed={stats.support_fixed} "
            f"aliased={stats.support_aliased} "
            f"free={stats.support_free})",
            "header counts CNF clauses + XOR rows "
            "(x-lines, CryptoMiniSat style)",
        ]
        if self.atoms:
            comments.append(
                f"WARNING: {len(self.atoms)} lazy LRA atoms are NOT "
                "encoded in this CNF; external counts over it "
                "over-approximate the SMT count")
        clauses = ([[lit] for lit in self.snapshot.units]
                   + [list(clause) for clause in self.snapshot.clauses])
        return write_dimacs(self.snapshot.num_vars, clauses,
                            xors=[(list(variables), rhs)
                                  for variables, rhs in self.snapshot.xors],
                            show=show, comments=comments)

    def __repr__(self) -> str:
        return (f"CompiledProblem({self.digest[:12]}, "
                f"vars={self.snapshot.num_vars}, "
                f"clauses={len(self.snapshot.clauses)}, "
                f"xors={len(self.snapshot.xors)}, "
                f"|S|={len(self.flat_bits)} bits)")
