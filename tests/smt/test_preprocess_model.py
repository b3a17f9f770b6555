"""Preprocessor and model-layer tests plus cross-layer property tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    And, Equals, Ite, Not, Or, SmtSolver, bool_var, bv_add,
    bv_ult, bv_val, bv_var, real_lt, real_val, real_var,
)
from repro.smt.evaluator import evaluate, satisfies
from repro.smt.model import Model, default_value, free_variables
from repro.smt.preprocess import Preprocessor
from repro.smt.ops import Op


class TestPreprocessor:
    def test_real_atoms_abstracted(self):
        pre = Preprocessor()
        r = real_var("pp_r")
        result = pre.process(real_lt(r, real_val(1)))
        assert len(result.new_atoms) == 1
        atom, abstraction = result.new_atoms[0]
        assert atom.op == Op.REAL_LT
        assert abstraction.sort.is_bool()

    def test_atom_deduplication(self):
        pre = Preprocessor()
        r = real_var("pp_r2")
        atom = real_lt(r, real_val(1))
        first = pre.process(Or(atom, bool_var("pp_b")))
        second = pre.process(And(atom, bool_var("pp_c")))
        assert len(first.new_atoms) == 1
        assert len(second.new_atoms) == 0  # same atom, same abstraction

    def test_frame_scoped_atoms(self):
        pre = Preprocessor()
        r = real_var("pp_r3")
        atom = real_lt(r, real_val(2))
        pre.push()
        in_frame = pre.process(atom)
        assert len(in_frame.new_atoms) == 1
        pre.pop()
        after_pop = pre.process(atom)
        assert len(after_pop.new_atoms) == 1  # registry was unwound

    def test_real_equality_desugared(self):
        pre = Preprocessor()
        r, q = real_var("pp_r4"), real_var("pp_q4")
        result = pre.process(Equals(r, q))
        # two weak inequalities r <= q and q <= r
        assert len(result.new_atoms) == 2
        assert all(a.op == Op.REAL_LE for a, _ in result.new_atoms)

    def test_real_ite_hoisting_emits_guards(self):
        pre = Preprocessor()
        flag = bool_var("pp_flag")
        hoisted = Ite(flag, real_val(1), real_val(2))
        result = pre.process(real_lt(hoisted, real_val(5)))
        # main assertion + two guard implications
        assert len(result.assertions) == 3

    def test_pure_bool_bv_untouched(self):
        pre = Preprocessor()
        x = bv_var("pp_x", 4)
        result = pre.process(bv_ult(x, bv_val(5, 4)))
        assert result.new_atoms == []
        assert len(result.assertions) == 1

    def test_non_bool_assertion_rejected(self):
        pre = Preprocessor()
        with pytest.raises(ValueError):
            pre.process(bv_var("pp_y", 4))


class TestModel:
    def test_default_completion(self):
        x = bv_var("md_x", 4)
        y = bv_var("md_y", 4)
        model = Model({x: 3})
        assert model.value(x) == 3
        assert model.value(y) == 0  # default completion
        assert model.value(bv_add(x, y)) == 3

    def test_free_variables(self):
        x, y = bv_var("fv_x", 4), bv_var("fv_y", 4)
        b = bool_var("fv_b")
        term = Ite(b, bv_add(x, y), x)
        assert free_variables(term) == {x, y, b}

    def test_default_values_by_sort(self):
        from repro.smt.sorts import (ArraySort, BitVecSort, BoolSort,
                                     RealSort, FloatSort)
        assert default_value(BoolSort()) is False
        assert default_value(BitVecSort(8)) == 0
        assert default_value(RealSort()) == 0
        assert default_value(FloatSort(3, 4)) == 0
        array = default_value(ArraySort(BitVecSort(2), BitVecSort(2)))
        assert array.get(1) == 0

    def test_model_repr_is_stable(self):
        x = bv_var("mr_x", 4)
        assert "mr_x" in repr(Model({x: 7}))

    def test_satisfies_helper(self):
        x = bv_var("sh_x", 4)
        assertions = [bv_ult(x, bv_val(5, 4))]
        assert satisfies(assertions, {x: 3})
        assert not satisfies(assertions, {x: 9})


class TestModelSoundnessProperty:
    """For random mixed formulas: SAT models must satisfy the original
    assertions under the reference evaluator; UNSAT answers must have no
    model in a brute-force sweep of a small discrete space."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mixed_formulas(self, seed):
        rng = random.Random(7000 + seed)
        x = bv_var(f"mx_{seed}", 3)
        b = bool_var(f"mb_{seed}")
        r = real_var(f"mr_{seed}")

        atoms = [
            bv_ult(x, bv_val(rng.randrange(1, 8), 3)),
            Equals(x, bv_val(rng.randrange(8), 3)),
            b,
            real_lt(r, real_val(rng.randint(-1, 2))),
            real_lt(real_val(0), r),
        ]

        def formula(depth):
            if depth == 0:
                return rng.choice(atoms)
            connective = rng.randrange(3)
            if connective == 0:
                return Not(formula(depth - 1))
            if connective == 1:
                return And(formula(depth - 1), formula(depth - 1))
            return Or(formula(depth - 1), formula(depth - 1))

        assertion = formula(3)
        solver = SmtSolver()
        solver.assert_term(assertion)
        if solver.check():
            model = solver.model()
            assert model.value(assertion) is True
        else:
            # Brute force over the discrete part with r from a small grid.
            from fractions import Fraction
            found = False
            for xv in range(8):
                for bv_ in (False, True):
                    for rv in (Fraction(-2), Fraction(1, 2), Fraction(1),
                               Fraction(3, 2), Fraction(3)):
                        if evaluate(assertion, {x: xv, b: bv_, r: rv}):
                            found = True
            assert not found, "solver said UNSAT but a model exists"


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_bv_arithmetic_ring_properties(a, b, c):
    """Associativity/commutativity/distributivity at the semantic level —
    guards the shared semantics all layers rely on."""
    from repro.smt.semantics import apply_op
    from repro.smt.sorts import BitVecSort

    sort = BitVecSort(8)

    def op(name, u, v):
        return apply_op(f"bv.{name}", sort, (sort, sort), (u, v))

    assert op("add", a, b) == op("add", b, a)
    assert op("mul", a, b) == op("mul", b, a)
    assert op("add", op("add", a, b), c) == op("add", a, op("add", b, c))
    assert (op("mul", a, op("add", b, c))
            == op("add", op("mul", a, b), op("mul", a, c)))
