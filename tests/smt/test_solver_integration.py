"""End-to-end SMT solver tests: hybrid formulas, enumeration, validation.

The key invariant exercised here is the one the whole counting stack rests
on: every model the solver produces evaluates the original assertions to
True, and blocking-clause enumeration over projected variables visits each
projected assignment exactly once.
"""

import random

import pytest

from repro.errors import SolverTimeoutError
from repro.smt import (
    And, Equals, Iff, Implies, Or, SmtSolver, bv_add,
    bv_and, bv_mul, bv_ult, bv_val, bv_var, bv_xor, fp_lt, fp_var,
    real_le, real_lt, real_val, real_var, fp_from_bv, fp_to_bv,
)
from repro.smt.evaluator import evaluate
from repro.utils.deadline import Deadline


def enumerate_projected(solver, projection_vars):
    """All projected assignments via blocking clauses (the enum pattern)."""
    bits_of = {v: solver.ensure_bits(v) for v in projection_vars}
    seen = []
    while solver.check():
        assignment = tuple(solver.bv_value(v) for v in projection_vars)
        seen.append(assignment)
        blocking = []
        for var in projection_vars:
            value = solver.bv_value(var)
            for position, literal in enumerate(bits_of[var]):
                blocking.append(-literal if (value >> position) & 1
                                else literal)
        solver.add_clause_lits(blocking)
        assert len(seen) <= 4096, "enumeration runaway"
    return seen


class TestHybridFormulas:
    def test_bv_real_bridge(self):
        x = bv_var("hyb_x", 4)
        r = real_var("hyb_r")
        solver = SmtSolver()
        # x < 8 <-> r > 0, and r < -1: forces x >= 8
        solver.assert_term(Iff(bv_ult(x, bv_val(8, 4)),
                               real_lt(real_val(0), r)))
        solver.assert_term(real_lt(r, real_val(-1)))
        assert solver.check() is True
        assert solver.bv_value(x) >= 8

    def test_fp_real_bv_three_way(self):
        x = bv_var("three_x", 4)
        r = real_var("three_r")
        h = fp_var("three_h", 3, 4)
        solver = SmtSolver()
        solver.assert_term(Implies(fp_lt(h, fp_from_bv(bv_val(0, 7), 3, 4)),
                                   bv_ult(x, bv_val(4, 4))))
        solver.assert_term(Implies(bv_ult(x, bv_val(4, 4)),
                                   real_le(r, real_val(0))))
        solver.assert_term(real_lt(real_val(1), r))
        solver.assert_term(Equals(fp_to_bv(h), bv_val(0b1_011_000, 7)))
        # h = -1.0 < 0 -> x < 4 -> r <= 0, contradicting r > 1.
        assert solver.check() is False

    def test_model_validates_hybrid(self):
        x = bv_var("val_x", 4)
        r = real_var("val_r")
        assertion = And(
            Or(bv_ult(x, bv_val(5, 4)), real_lt(r, real_val(0))),
            Implies(bv_ult(x, bv_val(5, 4)), real_lt(real_val(10), r)),
        )
        solver = SmtSolver()
        solver.assert_term(assertion)
        assert solver.check() is True
        assert solver.model().value(assertion) is True


class TestProjectedEnumeration:
    def test_enumeration_matches_brute_force(self):
        x, y = bv_var("pe_x", 3), bv_var("pe_y", 3)
        formula = bv_ult(bv_add(x, y), bv_val(4, 3))
        solver = SmtSolver()
        solver.assert_term(formula)
        seen = enumerate_projected(solver, [x, y])
        expected = {
            (a, b) for a in range(8) for b in range(8)
            if evaluate(formula, {x: a, y: b})
        }
        assert set(seen) == expected
        assert len(seen) == len(expected)  # no duplicates

    def test_projection_hides_witness_variables(self):
        """Count distinct x such that EXISTS y: x = 2y (3-bit)."""
        x, y = bv_var("pw_x", 3), bv_var("pw_y", 3)
        solver = SmtSolver()
        solver.assert_term(Equals(x, bv_mul(y, bv_val(2, 3))))
        seen = enumerate_projected(solver, [x])
        # x = 2y mod 8 hits exactly the even residues.
        assert sorted(v for (v,) in seen) == [0, 2, 4, 6]

    def test_unconstrained_projection_var_enumerates_fully(self):
        x = bv_var("un_x", 2)
        solver = SmtSolver()
        solver.assert_term(Equals(bv_val(1, 1), bv_val(1, 1)))  # trivial
        seen = enumerate_projected(solver, [x])
        assert sorted(v for (v,) in seen) == [0, 1, 2, 3]

    def test_projection_with_continuous_witness(self):
        """The hybrid counting semantics: count x with a real completion."""
        x = bv_var("cw_x", 3)
        r = real_var("cw_r")
        solver = SmtSolver()
        # r must lie strictly between x and 4: possible only for x < 4.
        solver.assert_term(real_lt(real_val(0), r))
        solver.assert_term(real_lt(r, real_val(4)))
        for value in range(8):
            solver.assert_term(
                Implies(Equals(x, bv_val(value, 3)),
                        real_lt(real_val(value), r)))
        seen = enumerate_projected(solver, [x])
        assert sorted(v for (v,) in seen) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bv_formulas_counted_exactly(self, seed):
        rng = random.Random(seed)
        x, y = bv_var(f"rc_x{seed}", 3), bv_var(f"rc_y{seed}", 3)
        operators = [bv_add, bv_mul, bv_and, bv_xor]
        left = rng.choice(operators)(x, y)
        threshold = bv_val(rng.randrange(1, 8), 3)
        formula = bv_ult(left, threshold)
        solver = SmtSolver()
        solver.assert_term(formula)
        seen = enumerate_projected(solver, [x, y])
        expected = sum(
            1 for a in range(8) for b in range(8)
            if evaluate(formula, {x: a, y: b}))
        assert len(seen) == expected


class TestIncrementalDiscipline:
    def test_push_pop_restores_count(self):
        x = bv_var("ip_x", 3)
        solver = SmtSolver()
        solver.assert_term(bv_ult(x, bv_val(6, 3)))
        solver.push()
        solver.assert_term(bv_ult(bv_val(2, 3), x))
        inner = enumerate_projected(solver, [x])
        assert sorted(v for (v,) in inner) == [3, 4, 5]
        solver.pop()
        outer = enumerate_projected(solver, [x])
        assert sorted(v for (v,) in outer) == [0, 1, 2, 3, 4, 5]

    def test_repeated_cell_counting(self):
        """Many push/enumerate/pop cycles — the pact hot loop."""
        x = bv_var("rep_x", 4)
        solver = SmtSolver()
        solver.assert_term(bv_ult(x, bv_val(12, 4)))
        bits = solver.ensure_bits(x)
        for round_index in range(20):
            bit = round_index % 4
            parity = round_index % 2 == 0
            solver.push()
            solver.assert_xor_bits([bits[bit]], parity)
            count = len(enumerate_projected(solver, [x]))
            expected = sum(1 for v in range(12)
                           if ((v >> bit) & 1) == parity)
            assert count == expected
            solver.pop()

    def test_deadline_propagates(self):
        x, y = bv_var("dl_x", 16), bv_var("dl_y", 16)
        solver = SmtSolver()
        solver.assert_term(Equals(bv_mul(x, y), bv_val(12345, 16)))
        with pytest.raises(SolverTimeoutError):
            solver.check(deadline=Deadline(0.0))


class TestXorIntegration:
    def test_xor_bits_constraint(self):
        x = bv_var("xi_x", 4)
        solver = SmtSolver()
        bits = solver.ensure_bits(x)
        solver.assert_xor_bits(bits, True)  # odd parity
        seen = enumerate_projected(solver, [x])
        assert sorted(v for (v,) in seen) == [
            v for v in range(16) if bin(v).count("1") % 2 == 1]

    def test_xor_with_negated_literals(self):
        x = bv_var("xn_x", 2)
        solver = SmtSolver()
        bits = solver.ensure_bits(x)
        solver.assert_xor_bits([-bits[0], bits[1]], False)
        seen = {v for (v,) in enumerate_projected(solver, [x])}
        expected = {v for v in range(4)
                    if ((v & 1) ^ 1) ^ ((v >> 1) & 1) == 0}
        assert seen == expected
