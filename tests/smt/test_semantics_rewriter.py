"""Semantics + rewriter tests: folding must agree with the evaluator."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    And, Equals, FALSE, Ite, Not, Or, TRUE, Xor, bool_var, bv_add, bv_and,
    bv_ashr, bv_extract, bv_lshr, bv_mul, bv_or, bv_sdiv,
    bv_shl, bv_sle, bv_slt, bv_srem, bv_sub, bv_udiv, bv_ule, bv_ult,
    bv_urem, bv_val, bv_var, bv_xor, bv_concat, bv_sign_extend,
    bv_zero_extend, real_add, real_lt, real_val,
)
from repro.smt.evaluator import evaluate
from repro.smt.rewriter import rewrite

BV_BINARY = [bv_add, bv_sub, bv_mul, bv_udiv, bv_urem, bv_sdiv, bv_srem,
             bv_and, bv_or, bv_xor, bv_shl, bv_lshr, bv_ashr]
BV_PREDS = [bv_ult, bv_ule, bv_slt, bv_sle]


class TestConstantFolding:
    @given(st.integers(0, 255), st.integers(0, 255),
           st.sampled_from(range(len(BV_BINARY))))
    @settings(max_examples=200, deadline=None)
    def test_bv_binary_folds_to_semantics(self, a, b, op_index):
        op = BV_BINARY[op_index]
        term = op(bv_val(a, 8), bv_val(b, 8))
        folded = rewrite(term)
        assert folded.is_const()
        assert folded.payload == evaluate(term, {})

    @given(st.integers(0, 255), st.integers(0, 255),
           st.sampled_from(range(len(BV_PREDS))))
    @settings(max_examples=100, deadline=None)
    def test_bv_predicates_fold(self, a, b, op_index):
        op = BV_PREDS[op_index]
        folded = rewrite(op(bv_val(a, 8), bv_val(b, 8)))
        assert folded in (TRUE, FALSE)
        assert folded.payload == evaluate(op(bv_val(a, 8), bv_val(b, 8)), {})

    def test_division_by_zero_smtlib_semantics(self):
        # udiv by 0 = all-ones; urem by 0 = dividend
        assert rewrite(bv_udiv(bv_val(13, 8), bv_val(0, 8))).payload == 255
        assert rewrite(bv_urem(bv_val(13, 8), bv_val(0, 8))).payload == 13
        # sdiv by 0: 1 if negative else all-ones
        assert rewrite(bv_sdiv(bv_val(200, 8), bv_val(0, 8))).payload == 1
        assert rewrite(bv_sdiv(bv_val(5, 8), bv_val(0, 8))).payload == 255

    def test_shift_beyond_width(self):
        assert rewrite(bv_shl(bv_val(1, 8), bv_val(9, 8))).payload == 0
        assert rewrite(bv_lshr(bv_val(128, 8), bv_val(8, 8))).payload == 0
        assert rewrite(bv_ashr(bv_val(128, 8), bv_val(200, 8))).payload == 255

    def test_extract_concat_extend_fold(self):
        v = bv_val(0b1011_0110, 8)
        assert rewrite(bv_extract(v, 5, 2)).payload == 0b1101
        assert rewrite(bv_concat(bv_val(0b10, 2), bv_val(0b01, 2))).payload == 0b1001
        assert rewrite(bv_zero_extend(bv_val(0b11, 2), 2)).payload == 0b11
        assert rewrite(bv_sign_extend(bv_val(0b10, 2), 2)).payload == 0b1110

    def test_real_folding(self):
        term = real_add(real_val(Fraction(1, 3)), real_val(Fraction(1, 6)))
        assert rewrite(term).payload == Fraction(1, 2)
        assert rewrite(real_lt(real_val(1), real_val(2))) is TRUE


class TestIdentities:
    def test_double_negation(self):
        b = bool_var("b")
        assert rewrite(Not(Not(b))) is b

    def test_and_with_true_false(self):
        b = bool_var("b")
        assert rewrite(And(b, TRUE)) is b
        assert rewrite(And(b, FALSE)) is FALSE

    def test_or_with_true_false(self):
        b = bool_var("b")
        assert rewrite(Or(b, FALSE)) is b
        assert rewrite(Or(b, TRUE)) is TRUE

    def test_xor_self_cancels(self):
        b = bool_var("b")
        assert rewrite(Xor(b, b)) is FALSE

    def test_ite_constant_condition(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert rewrite(Ite(TRUE, x, y)) is x
        assert rewrite(Ite(FALSE, x, y)) is y
        assert rewrite(Ite(bool_var("c"), x, x)) is x

    def test_eq_reflexive(self):
        x = bv_var("x", 8)
        assert rewrite(Equals(x, x)) is TRUE

    def test_bv_add_zero(self):
        x = bv_var("x", 8)
        assert rewrite(bv_add(x, bv_val(0, 8))) is x

    def test_bv_mul_one_zero(self):
        x = bv_var("x", 8)
        assert rewrite(bv_mul(x, bv_val(1, 8))) is x
        assert rewrite(bv_mul(x, bv_val(0, 8))).payload == 0

    def test_bv_xor_self(self):
        x = bv_var("x", 8)
        assert rewrite(bv_xor(x, x)).payload == 0

    def test_full_extract_collapses(self):
        x = bv_var("x", 8)
        assert rewrite(bv_extract(x, 7, 0)) is x

    def test_ult_irreflexive(self):
        x = bv_var("x", 8)
        assert rewrite(bv_ult(x, x)) is FALSE
        assert rewrite(bv_ule(x, x)) is TRUE


class TestRewriteSoundness:
    """Random terms: rewriting must preserve the evaluated value."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_bv_terms_preserved(self, seed):
        rng = random.Random(seed)
        variables = [bv_var(f"v{i}", 6) for i in range(3)]
        assignment = {v: rng.randrange(64) for v in variables}

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                if rng.random() < 0.5:
                    return rng.choice(variables)
                return bv_val(rng.randrange(64), 6)
            op = rng.choice(BV_BINARY)
            return op(random_term(depth - 1), random_term(depth - 1))

        term = random_term(4)
        rewritten = rewrite(term)
        assert (evaluate(term, assignment)
                == evaluate(rewritten, assignment))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_bool_terms_preserved(self, seed):
        rng = random.Random(100 + seed)
        variables = [bool_var(f"b{i}") for i in range(4)]
        assignment = {v: rng.random() < 0.5 for v in variables}

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(variables + [TRUE, FALSE])
            choice = rng.randrange(4)
            if choice == 0:
                return Not(random_term(depth - 1))
            if choice == 1:
                return And(random_term(depth - 1), random_term(depth - 1))
            if choice == 2:
                return Or(random_term(depth - 1), random_term(depth - 1))
            return Ite(random_term(depth - 1), random_term(depth - 1),
                       random_term(depth - 1))

        term = random_term(5)
        assert (evaluate(term, assignment)
                == evaluate(rewrite(term), assignment))
