"""LRA tests: delta-rationals, simplex, linearisation, end-to-end solving."""

import random
from fractions import Fraction

import pytest

from repro.errors import UnsupportedFeatureError
from repro.smt import (
    Equals, Ite, Not, Or, SmtSolver, bool_var, real_add,
    real_div, real_ge, real_gt, real_le, real_lt, real_mul, real_neg,
    real_sub, real_val, real_var,
)
from repro.smt.theories.lra.delta import DeltaRational
from repro.smt.theories.lra.simplex import Simplex
from repro.smt.theories.lra.theory import (
    LraTheory, linearise, normalise_atom,
)


class TestDeltaRational:
    def test_lexicographic_order(self):
        assert DeltaRational(1, 0) < DeltaRational(1, 1)
        assert DeltaRational(1, -1) < DeltaRational(1, 0)
        assert DeltaRational(0, 100) < DeltaRational(1, -100)

    def test_arithmetic(self):
        a = DeltaRational(Fraction(1, 2), 1)
        b = DeltaRational(Fraction(1, 2), -1)
        assert (a + b) == DeltaRational(1, 0)
        assert (a - b) == DeltaRational(0, 2)
        assert a.scale(2) == DeltaRational(1, 2)
        assert (-a) == DeltaRational(Fraction(-1, 2), -1)

    def test_concretise(self):
        a = DeltaRational(1, 2)
        assert a.concretise(Fraction(1, 100)) == Fraction(51, 50)


class TestSimplex:
    def test_trivial_feasible(self):
        simplex = Simplex()
        x = simplex.new_variable()
        simplex.assert_lower(x, DeltaRational(0), "t1")
        simplex.assert_upper(x, DeltaRational(5), "t2")
        feasible, _ = simplex.check()
        assert feasible
        values = simplex.concretise()
        assert 0 <= values[x] <= 5

    def test_immediate_bound_conflict(self):
        simplex = Simplex()
        x = simplex.new_variable()
        assert simplex.assert_lower(x, DeltaRational(3), "lo") is None
        conflict = simplex.assert_upper(x, DeltaRational(2), "hi")
        assert conflict is not None
        assert set(conflict) == {"lo", "hi"}

    def test_row_infeasibility_with_explanation(self):
        # x + y <= 1, x >= 1, y >= 1 is infeasible.
        simplex = Simplex()
        x, y = simplex.new_variable(), simplex.new_variable()
        s = simplex.define({x: Fraction(1), y: Fraction(1)})
        simplex.assert_upper(s, DeltaRational(1), "sum")
        simplex.assert_lower(x, DeltaRational(1), "x")
        simplex.assert_lower(y, DeltaRational(1), "y")
        feasible, tags = simplex.check()
        assert not feasible
        assert set(tags) == {"sum", "x", "y"}

    def test_strict_bounds_need_delta(self):
        # 0 < x < 1 is feasible only with strict handling.
        simplex = Simplex()
        x = simplex.new_variable()
        simplex.assert_lower(x, DeltaRational(0, 1), "lo")
        simplex.assert_upper(x, DeltaRational(1, -1), "hi")
        feasible, _ = simplex.check()
        assert feasible
        value = simplex.concretise()[x]
        assert 0 < value < 1

    def test_strict_cycle_infeasible(self):
        # x < y and y < x.
        simplex = Simplex()
        x, y = simplex.new_variable(), simplex.new_variable()
        s1 = simplex.define({x: Fraction(1), y: Fraction(-1)})
        simplex.assert_upper(s1, DeltaRational(0, -1), "x<y")
        s2 = simplex.define({y: Fraction(1), x: Fraction(-1)})
        conflict = simplex.assert_upper(s2, DeltaRational(0, -1), "y<x")
        if conflict is None:
            feasible, tags = simplex.check()
            assert not feasible
            assert "x<y" in tags and "y<x" in tags

    @pytest.mark.parametrize("seed", range(15))
    def test_random_systems_vs_scipy(self, seed):
        """Feasibility agrees with scipy.optimize.linprog."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(seed)
        num_vars = rng.randint(2, 4)
        num_constraints = rng.randint(2, 6)
        rows, bounds = [], []
        simplex = Simplex()
        variables = [simplex.new_variable() for _ in range(num_vars)]
        for index in range(num_constraints):
            coefficients = [rng.randint(-3, 3) for _ in range(num_vars)]
            constant = rng.randint(-5, 5)
            rows.append(coefficients)
            bounds.append(constant)
            slack = simplex.define({
                variables[i]: Fraction(c)
                for i, c in enumerate(coefficients) if c != 0
            })
            simplex.assert_upper(slack, DeltaRational(constant), index)
        feasible, _ = simplex.check()
        result = scipy_opt.linprog(
            c=[0.0] * num_vars, A_ub=rows, b_ub=bounds,
            bounds=[(None, None)] * num_vars, method="highs")
        assert feasible == result.success

    def test_feasible_assignment_satisfies_all_bounds(self):
        rng = random.Random(99)
        simplex = Simplex()
        variables = [simplex.new_variable() for _ in range(3)]
        constraints = []
        for index in range(5):
            coefficients = {v: Fraction(rng.randint(-2, 2))
                            for v in variables}
            constant = rng.randint(0, 6)
            slack = simplex.define(coefficients)
            simplex.assert_upper(slack, DeltaRational(constant), index)
            constraints.append((coefficients, constant))
        feasible, _ = simplex.check()
        assert feasible
        values = simplex.concretise()
        for coefficients, constant in constraints:
            total = sum(values[v] * c for v, c in coefficients.items())
            assert total <= constant


class TestLinearise:
    def test_simple_combination(self):
        x, y = real_var("lx"), real_var("ly")
        term = real_add(real_mul(real_val(2), x),
                        real_sub(y, real_val(3)))
        coefficients, constant = linearise(term)
        assert coefficients == {x: 2, y: 1}
        assert constant == -3

    def test_negation_and_division(self):
        x = real_var("lx")
        term = real_neg(real_div(x, real_val(2)))
        coefficients, constant = linearise(term)
        assert coefficients == {x: Fraction(-1, 2)}
        assert constant == 0

    def test_nonlinear_rejected(self):
        x, y = real_var("lx"), real_var("ly")
        with pytest.raises(UnsupportedFeatureError):
            linearise(real_mul(x, y))

    def test_division_by_variable_rejected(self):
        x, y = real_var("lx"), real_var("ly")
        with pytest.raises(UnsupportedFeatureError):
            linearise(real_div(x, y))

    def test_normalise_moves_everything_left(self):
        x, y = real_var("lx"), real_var("ly")
        atom = real_le(real_add(x, real_val(1)), real_add(y, real_val(4)))
        normalised = normalise_atom(atom)
        assert normalised.coefficients == {x: 1, y: -1}
        assert normalised.constant == 3
        assert not normalised.strict


def _random_atoms(rng, count):
    """``count`` random linear atoms over three real variables."""
    variables = [real_var(f"memo{i}") for i in range(3)]
    atoms = []
    for _ in range(count):
        expr = real_val(0)
        for var in variables:
            coefficient = rng.randint(-2, 2)
            if coefficient:
                expr = real_add(expr, real_mul(real_val(coefficient), var))
        relation = real_lt if rng.random() < 0.5 else real_le
        atoms.append(relation(expr, real_val(rng.randint(-3, 3))))
    return atoms


def _polarity(vector):
    """A SAT-model reader giving atom literal i+1 the polarity
    ``vector[i]``."""
    return lambda lit: vector[lit - 1] if lit > 0 else not vector[-lit - 1]


def _theory(atoms):
    theory = LraTheory()
    for literal, atom in enumerate(atoms, start=1):
        theory.register(atom, literal)
    return theory


class TestVerdictMemo:
    @pytest.mark.parametrize("seed", range(8))
    def test_memoised_answers_equal_fresh_ones(self, seed):
        """Every polarity vector, asked twice in shuffled order, gets the
        verdict and payload a fresh theory computes; every call counts."""
        rng = random.Random(400 + seed)
        atoms = _random_atoms(rng, rng.randint(2, 5))
        vectors = [tuple(bool((bits >> i) & 1) for i in range(len(atoms)))
                   for bits in range(1 << len(atoms))] * 2
        rng.shuffle(vectors)
        theory = _theory(atoms)
        infeasible = 0
        for vector in vectors:
            got = theory.check(_polarity(vector))
            assert got == _theory(atoms).check(_polarity(vector))
            infeasible += not got[0]
        assert theory.checks == len(vectors)
        assert theory.conflicts == infeasible

    def test_atom_registered_at_a_reused_position_gets_its_own_verdict(self):
        x = real_var("memo_x")
        theory = LraTheory()
        theory.register(real_le(x, real_val(0)), 1)
        both = _polarity((True, True))
        theory.push()
        theory.register(real_ge(x, real_val(1)), 2)  # x <= 0 and x >= 1
        assert theory.check(both)[0] is False
        theory.pop()
        theory.push()
        theory.register(real_le(x, real_val(5)), 2)  # x <= 0 and x <= 5
        feasible, model = theory.check(both)
        assert feasible is True
        assert model[x] <= 0
        theory.pop()

    def test_mutating_an_answer_leaves_the_next_one_intact(self):
        x, y = real_var("memo_mx"), real_var("memo_my")
        atoms = [real_le(real_add(x, y), real_val(1)),
                 real_ge(x, real_val(1)), real_ge(y, real_val(1))]
        theory = _theory(atoms)
        sat, unsat = _polarity((True, True, False)), _polarity((True,) * 3)
        expected = {vector: _theory(atoms).check(vector)
                    for vector in (sat, unsat)}
        feasible, model = theory.check(sat)
        assert feasible is True
        model[x] = Fraction(99)
        model.clear()
        feasible, clause = theory.check(unsat)
        assert feasible is False
        clause.append(42)
        clause.clear()
        assert theory.check(sat) == expected[sat]
        assert theory.check(unsat) == expected[unsat]
        assert (theory.checks, theory.conflicts) == (4, 2)


class TestEndToEnd:
    def test_chain_of_strict_inequalities(self):
        variables = [real_var(f"c{i}") for i in range(4)]
        solver = SmtSolver()
        for a, b in zip(variables, variables[1:]):
            solver.assert_term(real_lt(a, b))
        solver.assert_term(real_gt(variables[0], real_val(0)))
        solver.assert_term(real_lt(variables[-1], real_val(1)))
        assert solver.check() is True
        model = solver.model()
        values = [model.value(v) for v in variables]
        assert values == sorted(values)
        assert 0 < values[0] and values[-1] < 1
        assert len(set(values)) == len(values)

    def test_equality_desugaring(self):
        x, y = real_var("ex"), real_var("ey")
        solver = SmtSolver()
        solver.assert_term(Equals(x, real_add(y, real_val(2))))
        solver.assert_term(Equals(y, real_val(5)))
        assert solver.check() is True
        model = solver.model()
        assert model.value(x) == 7
        assert model.value(y) == 5

    def test_negated_equality_forces_apartness(self):
        x, y = real_var("nx"), real_var("ny")
        solver = SmtSolver()
        solver.assert_term(Not(Equals(x, y)))
        solver.assert_term(real_le(x, y))
        assert solver.check() is True
        model = solver.model()
        assert model.value(x) < model.value(y)

    def test_real_ite_hoisting(self):
        x = real_var("hx")
        flag = bool_var("hflag")
        solver = SmtSolver()
        value = Ite(flag, real_val(10), real_val(20))
        solver.assert_term(Equals(x, value))
        solver.assert_term(real_gt(x, real_val(15)))
        assert solver.check() is True
        model = solver.model()
        assert model.value(x) == 20
        assert model.value(flag) is False

    def test_boolean_structure_over_atoms(self):
        x = real_var("bx")
        solver = SmtSolver()
        solver.assert_term(Or(real_lt(x, real_val(0)),
                              real_gt(x, real_val(10))))
        solver.assert_term(real_ge(x, real_val(0)))
        assert solver.check() is True
        assert solver.model().value(x) > 10

    def test_unsat_triangle(self):
        x, y, z = real_var("tx"), real_var("ty"), real_var("tz")
        solver = SmtSolver()
        solver.assert_term(real_lt(x, y))
        solver.assert_term(real_lt(y, z))
        solver.assert_term(real_lt(z, x))
        assert solver.check() is False

    def test_model_satisfies_original_assertions(self):
        rng = random.Random(7)
        variables = [real_var(f"m{i}") for i in range(3)]
        solver = SmtSolver()
        assertions = []
        for _ in range(4):
            coefficients = [rng.randint(-2, 2) for _ in variables]
            expr = real_val(0)
            for coefficient, var in zip(coefficients, variables):
                expr = real_add(expr,
                                real_mul(real_val(coefficient), var))
            atom = real_le(expr, real_val(rng.randint(0, 5)))
            assertions.append(atom)
            solver.assert_term(atom)
        if solver.check():
            model = solver.model()
            for assertion in assertions:
                assert model.value(assertion) is True

    def test_incremental_push_pop(self):
        x = real_var("ix")
        solver = SmtSolver()
        solver.assert_term(real_gt(x, real_val(0)))
        assert solver.check() is True
        solver.push()
        solver.assert_term(real_lt(x, real_val(0)))
        assert solver.check() is False
        solver.pop()
        assert solver.check() is True
