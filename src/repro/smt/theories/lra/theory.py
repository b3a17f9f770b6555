"""LRA atom normalisation and the lazy theory-check adapter.

A real atom is normalised to ``sum(coeff_i * var_i) <= / < constant``.
Real equalities are split in the preprocessor into a conjunction of two
weak atoms, so negation of any atom stays convex:

    not (e <= c)  ->  e > c   (i.e. -e < -c)
    not (e < c)   ->  e >= c  (i.e. -e <= -c)

:class:`LraTheory` owns the atom registry (Bool abstraction variable <->
atom) and performs the per-assignment feasibility check.  The verdict
depends only on the atoms' polarities, so it is memoised per polarity
vector: a counting loop that enumerates thousands of SAT models over a
handful of atoms runs simplex once per vector, not once per model.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import UnsupportedFeatureError
from repro.smt.ops import Op
from repro.smt.terms import Term
from repro.smt.theories.lra.delta import DeltaRational
from repro.smt.theories.lra.simplex import Simplex


class LinearAtom:
    """A normalised atom: ``coefficients . vars  (<= | <)  constant``."""

    __slots__ = ("coefficients", "strict", "constant")

    def __init__(self, coefficients: dict[Term, Fraction], strict: bool,
                 constant: Fraction):
        self.coefficients = coefficients
        self.strict = strict
        self.constant = constant

    def bound(self) -> DeltaRational:
        """Upper bound on the linear expression for the positive polarity."""
        return DeltaRational(self.constant, -1 if self.strict else 0)

    def negated_bound(self) -> DeltaRational:
        """Lower bound on the expression for the negative polarity.

        not (e <= c) is e > c: lower bound (c, +1);
        not (e < c)  is e >= c: lower bound (c, 0).
        """
        return DeltaRational(self.constant, 0 if self.strict else 1)

    def __repr__(self) -> str:
        relation = "<" if self.strict else "<="
        expr = " + ".join(f"{c}*{v.name}" for v, c in
                          self.coefficients.items())
        return f"LinearAtom({expr} {relation} {self.constant})"


def linearise(term: Term) -> tuple[dict[Term, Fraction], Fraction]:
    """Decompose a Real term into (coefficients over real vars, constant).

    Raises UnsupportedFeatureError on non-linear structure (variable times
    variable, division by a non-constant).
    """
    coefficients: dict[Term, Fraction] = {}

    def walk(node: Term, factor: Fraction) -> Fraction:
        """Accumulate node*factor; returns the constant part contribution."""
        if node.op == Op.REAL_CONST:
            return node.payload * factor
        if node.op == Op.VAR:
            coefficients[node] = coefficients.get(node, Fraction(0)) + factor
            return Fraction(0)
        if node.op == Op.REAL_ADD:
            return walk(node.args[0], factor) + walk(node.args[1], factor)
        if node.op == Op.REAL_SUB:
            return walk(node.args[0], factor) + walk(node.args[1], -factor)
        if node.op == Op.REAL_NEG:
            return walk(node.args[0], -factor)
        if node.op == Op.REAL_MUL:
            left, right = node.args
            if left.op == Op.REAL_CONST:
                return walk(right, factor * left.payload)
            if right.op == Op.REAL_CONST:
                return walk(left, factor * right.payload)
            raise UnsupportedFeatureError(
                "non-linear real multiplication (DESIGN.md section 7)")
        if node.op == Op.REAL_DIV:
            left, right = node.args
            if right.op == Op.REAL_CONST:
                if right.payload == 0:
                    raise UnsupportedFeatureError("division by zero constant")
                return walk(left, factor / right.payload)
            raise UnsupportedFeatureError(
                "division by a non-constant real term")
        if node.op == Op.ITE:
            raise UnsupportedFeatureError(
                "real ITE must be hoisted before linearisation")
        raise UnsupportedFeatureError(
            f"cannot linearise real operator {node.op}")

    constant = walk(term, Fraction(1))
    coefficients = {v: c for v, c in coefficients.items() if c != 0}
    return coefficients, constant


def normalise_atom(atom: Term) -> LinearAtom:
    """Turn ``lhs (<|<=) rhs`` into a :class:`LinearAtom`."""
    if atom.op not in (Op.REAL_LE, Op.REAL_LT):
        raise ValueError(f"not a real inequality atom: {atom!r}")
    lhs, rhs = atom.args
    left_coeffs, left_const = linearise(lhs)
    right_coeffs, right_const = linearise(rhs)
    coefficients = dict(left_coeffs)
    for var, coeff in right_coeffs.items():
        coefficients[var] = coefficients.get(var, Fraction(0)) - coeff
    coefficients = {v: c for v, c in coefficients.items() if c != 0}
    constant = right_const - left_const
    return LinearAtom(coefficients, atom.op == Op.REAL_LT, constant)


# Verdicts kept per theory: 2^k for k atoms, capped so an atom-heavy
# problem cannot grow the memo without bound.
_MEMO_LIMIT = 4096


class LraTheory:
    """Registry of abstracted atoms plus the per-assignment check."""

    def __init__(self):
        # ordered registry: (atom term, LinearAtom, sat literal)
        self._atoms: list[tuple[Term, LinearAtom, int]] = []
        self._frame_marks: list[int] = []
        # polarity tuple (one bool per registered atom, in order) ->
        # (feasible, payload) as the simplex computed it
        self._memo: dict[tuple[bool, ...], tuple[bool, object]] = {}
        self.checks = 0
        self.conflicts = 0

    def register(self, atom: Term, sat_lit: int) -> None:
        self._atoms.append((atom, normalise_atom(atom), sat_lit))
        self._memo.clear()

    def has_atoms(self) -> bool:
        return bool(self._atoms)

    # frames ------------------------------------------------------------
    def push(self) -> None:
        self._frame_marks.append(len(self._atoms))

    def pop(self) -> None:
        mark = self._frame_marks.pop()
        if len(self._atoms) > mark:
            del self._atoms[mark:]
            self._memo.clear()

    # the check ----------------------------------------------------------
    def check(self, sat_model_value) -> tuple[bool, object]:
        """Check the current atom polarities for feasibility.

        ``sat_model_value(lit) -> bool`` reads the SAT model.  Returns
        (True, real_model_dict) or (False, conflict_clause_lits), a
        fresh copy on every call.  ``checks`` and ``conflicts`` count
        every call, memoised or not.
        """
        self.checks += 1
        key = tuple(sat_model_value(lit) for _term, _atom, lit in self._atoms)
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._solve(key)
            if len(self._memo) < _MEMO_LIMIT:
                self._memo[key] = verdict
        feasible, payload = verdict
        if feasible:
            return True, dict(payload)
        self.conflicts += 1
        return False, list(payload)

    def _solve(self, polarities: tuple[bool, ...]) -> tuple[bool, object]:
        """One simplex run over the atoms at ``polarities``."""
        simplex = Simplex()
        variables: dict[Term, int] = {}

        def var_id(term: Term) -> int:
            if term not in variables:
                variables[term] = simplex.new_variable()
            return variables[term]

        conflict_tags = None
        for (_term, atom, lit), polarity in zip(self._atoms, polarities):
            coeffs = {var_id(v): c for v, c in atom.coefficients.items()}
            slack = simplex.define(coeffs)
            if polarity:
                result = simplex.assert_upper(slack, atom.bound(), lit)
            else:
                result = simplex.assert_lower(slack, atom.negated_bound(),
                                              -lit)
            if result is not None:
                conflict_tags = result
                break
        if conflict_tags is None:
            feasible, tags = simplex.check()
            if feasible:
                values = simplex.concretise()
                model = {term: values[vid]
                         for term, vid in variables.items()}
                return True, model
            conflict_tags = tags
        # Blocking clause: at least one of the participating polarities
        # must flip.  Tags are the literals asserted true by the model.
        return False, [-tag for tag in conflict_tags]
