"""Printer edge cases and full round-trip property tests."""

import random
from fractions import Fraction

import pytest

from repro.smt import (
    Distinct, Equals, Ite, Or, apply_uf, array_var,
    bv_add, bv_ashr, bv_concat, bv_extract, bv_lshr, bv_mul, bv_sdiv,
    bv_shl, bv_sign_extend, bv_sle, bv_slt, bv_srem, bv_sub, bv_udiv,
    bv_ule, bv_ult, bv_urem, bv_val, bv_var, bv_xor, bv_zero_extend,
    fp_add, fp_is_nan, fp_leq, fp_mul, fp_neg,
    fp_to_bv, fp_val, fp_var, real_div, real_le, real_lt, real_val,
    real_var, select, store, uf,
)
from repro.smt.parser import parse_script
from repro.smt.printer import declaration, print_sort, print_term, write_script
from repro.smt.sorts import (
    ArraySort, BitVecSort, BoolSort, FloatSort, RealSort,
)


class TestPrintTerm:
    def test_bv_constants_hex_vs_binary(self):
        assert print_term(bv_val(255, 8)) == "#xff"
        assert print_term(bv_val(5, 3)) == "#b101"

    def test_negative_rational(self):
        assert print_term(real_val(-2)) == "(- 2.0)"
        assert print_term(real_val(Fraction(-1, 3))) == "(- (/ 1.0 3.0))"

    def test_fp_constant_fields(self):
        term = fp_val(0b1_011_010, 3, 4)
        assert print_term(term) == "(fp #b1 #b011 #b010)"

    def test_quoted_symbol(self):
        weird = bv_var("has space", 4)
        assert print_term(weird) == "|has space|"

    def test_fp_rounded_ops_carry_rne(self):
        a = fp_var("pr_a", 3, 4)
        assert print_term(fp_add(a, a)).startswith("(fp.add RNE ")
        assert print_term(fp_mul(a, a)).startswith("(fp.mul RNE ")

    def test_uf_application(self):
        f = uf("pr_f", [BitVecSort(4)], BitVecSort(4))
        x = bv_var("pr_x", 4)
        assert print_term(apply_uf(f, x)) == "(pr_f pr_x)"

    def test_sorts(self):
        assert print_sort(BoolSort()) == "Bool"
        assert print_sort(RealSort()) == "Real"
        assert print_sort(BitVecSort(7)) == "(_ BitVec 7)"
        assert print_sort(FloatSort(5, 11)) == "(_ FloatingPoint 5 11)"
        assert (print_sort(ArraySort(BitVecSort(2), BoolSort()))
                == "(Array (_ BitVec 2) Bool)")

    def test_declaration_forms(self):
        assert declaration(bv_var("d_x", 4)) == (
            "(declare-fun d_x () (_ BitVec 4))")
        f = uf("d_f", [BoolSort(), BitVecSort(2)], RealSort())
        assert declaration(f) == (
            "(declare-fun d_f (Bool (_ BitVec 2)) Real)")


class TestRoundTripProperty:
    OPS = [bv_add, bv_sub, bv_mul, bv_udiv, bv_urem, bv_sdiv, bv_srem,
           bv_shl, bv_lshr, bv_ashr, bv_xor]
    PREDS = [bv_ult, bv_ule, bv_slt, bv_sle]

    @pytest.mark.parametrize("seed", range(15))
    def test_random_bv_round_trip(self, seed):
        rng = random.Random(seed)
        x = bv_var("rt_x", 8)
        y = bv_var("rt_y", 8)

        def build(depth):
            if depth == 0 or rng.random() < 0.3:
                choice = rng.random()
                if choice < 0.4:
                    return x
                if choice < 0.8:
                    return y
                return bv_val(rng.randrange(256), 8)
            pick = rng.random()
            if pick < 0.7:
                return rng.choice(self.OPS)(build(depth - 1),
                                            build(depth - 1))
            if pick < 0.8:
                inner = build(depth - 1)
                hi = rng.randrange(2, 8)
                extracted = bv_extract(inner, hi, hi - 2)
                return bv_zero_extend(extracted, 8 - extracted.sort.width)
            return Ite(rng.choice(self.PREDS)(build(depth - 1),
                                              build(depth - 1)),
                       build(depth - 1), build(depth - 1))

        assertion = rng.choice(self.PREDS)(build(3), build(3))
        text = write_script([assertion], "QF_BV", [x])
        script = parse_script(text)
        assert script.assertions[0] is assertion

    def test_mixed_theory_round_trip(self):
        x = bv_var("mt_x", 8)
        r = real_var("mt_r")
        h = fp_var("mt_h", 3, 4)
        arr = array_var("mt_a", BitVecSort(4), BitVecSort(8))
        f = uf("mt_f", [BitVecSort(8)], BitVecSort(8))
        assertions = [
            Or(bv_ult(x, bv_val(16, 8)),
               real_lt(real_div(r, real_val(2)), real_val(1))),
            fp_leq(fp_neg(h), fp_mul(h, h)),
            Equals(select(store(arr, bv_val(1, 4), x),
                          bv_extract(x, 3, 0)), apply_uf(f, x)),
            Ite(fp_is_nan(h), real_le(r, real_val(0)),
                Equals(fp_to_bv(h), bv_val(3, 7))),
            Distinct(x, bv_val(0, 8), bv_val(255, 8)),
        ]
        text = write_script(assertions, "QF_ABVFPLRA", [x])
        script = parse_script(text)
        for original, reparsed in zip(assertions, script.assertions):
            assert original is reparsed

    def test_concat_and_extensions_round_trip(self):
        x = bv_var("ce_x", 4)
        term = Equals(
            bv_concat(bv_sign_extend(x, 2), bv_zero_extend(x, 2)),
            bv_val(77, 12))
        script = parse_script(write_script([term], "QF_BV", [x]))
        assert script.assertions[0] is term
