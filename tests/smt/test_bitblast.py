"""Bit-blaster correctness: every BV operator vs the reference semantics.

The pattern: build op(x, y), constrain x and y to constants via the SMT
solver, solve (pure propagation) and compare the result bits with
evaluate().  This validates the entire path terms -> CNF -> model.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    Equals, Iff, Ite, SmtSolver, bool_var, bv_add, bv_and,
    bv_ashr, bv_concat, bv_extract, bv_lshr, bv_mul, bv_neg, bv_not, bv_or,
    bv_sdiv, bv_shl, bv_sign_extend, bv_sle, bv_slt, bv_srem, bv_sub,
    bv_udiv, bv_ule, bv_ult, bv_urem, bv_val, bv_var, bv_xor,
    bv_zero_extend, Distinct,
)
from repro.smt.evaluator import evaluate

BINARY_OPS = {
    "add": bv_add, "sub": bv_sub, "mul": bv_mul, "udiv": bv_udiv,
    "urem": bv_urem, "sdiv": bv_sdiv, "srem": bv_srem, "and": bv_and,
    "or": bv_or, "xor": bv_xor, "shl": bv_shl, "lshr": bv_lshr,
    "ashr": bv_ashr,
}
PRED_OPS = {"ult": bv_ult, "ule": bv_ule, "slt": bv_slt, "sle": bv_sle}


def solve_for(term, bindings):
    """Assert var = const bindings and return term's model value."""
    solver = SmtSolver()
    for var, value in bindings.items():
        solver.assert_term(Equals(var, bv_val(value, var.sort.width)))
    if term.sort.is_bool():
        result_var = bool_var("__result")
        solver.assert_term(Iff(result_var, term))
        assert solver.check() is True
        return solver.model().value(result_var)
    result_var = bv_var("__result", term.sort.width)
    solver.assert_term(Equals(result_var, term))
    assert solver.check() is True
    return solver.bv_value(result_var)


@pytest.mark.parametrize("op_name", sorted(BINARY_OPS))
def test_binary_ops_match_semantics(op_name):
    op = BINARY_OPS[op_name]
    rng = random.Random(hash(op_name) & 0xFFFF)
    x, y = bv_var(f"x_{op_name}", 5), bv_var(f"y_{op_name}", 5)
    term = op(x, y)
    cases = [(rng.randrange(32), rng.randrange(32)) for _ in range(8)]
    cases += [(0, 0), (31, 31), (0, 31), (16, 1), (5, 0)]
    for a, b in cases:
        got = solve_for(term, {x: a, y: b})
        expected = evaluate(term, {x: a, y: b})
        assert got == expected, f"{op_name}({a}, {b}) = {got} != {expected}"


@pytest.mark.parametrize("op_name", sorted(PRED_OPS))
def test_predicates_match_semantics(op_name):
    op = PRED_OPS[op_name]
    x, y = bv_var(f"px_{op_name}", 4), bv_var(f"py_{op_name}", 4)
    term = op(x, y)
    for a in range(0, 16, 3):
        for b in range(0, 16, 3):
            got = solve_for(term, {x: a, y: b})
            assert got == evaluate(term, {x: a, y: b}), (op_name, a, b)


def test_unary_and_structure_ops():
    x = bv_var("sx", 6)
    for a in (0, 1, 31, 63, 32):
        for term in (bv_not(x), bv_neg(x), bv_extract(x, 4, 1),
                     bv_zero_extend(x, 3), bv_sign_extend(x, 3)):
            got = solve_for(term, {x: a})
            assert got == evaluate(term, {x: a}), (term.op, a)


def test_concat():
    x, y = bv_var("cx", 3), bv_var("cy", 5)
    term = bv_concat(x, y)
    for a, b in [(0, 0), (7, 31), (5, 9), (1, 16)]:
        got = solve_for(term, {x: a, y: b})
        assert got == evaluate(term, {x: a, y: b})


def test_ite_over_bv():
    x, y = bv_var("ix", 4), bv_var("iy", 4)
    term = Ite(bv_ult(x, y), bv_add(x, y), bv_sub(x, y))
    for a, b in [(2, 9), (9, 2), (5, 5)]:
        got = solve_for(term, {x: a, y: b})
        assert got == evaluate(term, {x: a, y: b})


def test_distinct():
    xs = [bv_var(f"dx{i}", 3) for i in range(3)]
    term = Distinct(*xs)
    got = solve_for(term, {xs[0]: 1, xs[1]: 2, xs[2]: 3})
    assert got is True
    got = solve_for(term, {xs[0]: 1, xs[1]: 2, xs[2]: 1})
    assert got is False


@given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
@settings(max_examples=15, deadline=None)
def test_wide_multiplication(a, b):
    x, y = bv_var("wx", 16), bv_var("wy", 16)
    term = bv_mul(x, y)
    assert solve_for(term, {x: a, y: b}) == (a * b) & 0xFFFF


@pytest.mark.parametrize("seed", range(10))
def test_random_nested_terms(seed):
    """Deeply nested random expressions: solver value == evaluator value."""
    rng = random.Random(3000 + seed)
    variables = [bv_var(f"n{seed}_{i}", 4) for i in range(3)]
    assignment = {v: rng.randrange(16) for v in variables}
    ops = list(BINARY_OPS.values())

    def build(depth):
        if depth == 0 or rng.random() < 0.25:
            if rng.random() < 0.6:
                return rng.choice(variables)
            return bv_val(rng.randrange(16), 4)
        return rng.choice(ops)(build(depth - 1), build(depth - 1))

    term = build(4)
    assert solve_for(term, assignment) == evaluate(term, assignment)


def test_unsat_from_contradictory_bv_facts():
    solver = SmtSolver()
    x = bv_var("ux", 8)
    solver.assert_term(bv_ult(x, bv_val(10, 8)))
    solver.assert_term(bv_ult(bv_val(20, 8), x))
    assert solver.check() is False


def test_overflow_wraps():
    solver = SmtSolver()
    x = bv_var("ox", 8)
    solver.assert_term(Equals(bv_add(x, bv_val(1, 8)), bv_val(0, 8)))
    assert solver.check() is True
    assert solver.bv_value(x) == 255
