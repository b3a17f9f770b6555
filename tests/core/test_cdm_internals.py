"""Unit tests for the CDM baseline's building blocks."""

import random

import pytest

from repro.core.cdm import _integer_root, compose_copies, _xor_hash_term
from repro.smt import (
    And, bv_add, bv_ult, bv_val, bv_var, real_lt, real_val,
    real_var,
)
from repro.smt.evaluator import evaluate
from repro.smt.model import free_variables


class TestComposeCopies:
    def test_copies_are_disjoint(self):
        x, y = bv_var("cc_x", 4), bv_var("cc_y", 4)
        assertions = [bv_ult(bv_add(x, y), bv_val(9, 4))]
        composed, projections = compose_copies(assertions, [x], 3)
        assert len(composed) == 3
        assert len(projections) == 3
        variable_sets = [free_variables(a) for a in composed]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (variable_sets[i] & variable_sets[j])

    def test_copy_preserves_structure(self):
        x = bv_var("cp_x", 4)
        assertions = [bv_ult(x, bv_val(5, 4))]
        composed, projections = compose_copies(assertions, [x], 2)
        for copy, projection in zip(composed, projections):
            var = projection[0]
            assert var.sort.width == 4
            # the copy is the same predicate over the renamed variable
            assert evaluate(copy, {var: 3}) is True
            assert evaluate(copy, {var: 7}) is False

    def test_hybrid_variables_renamed(self):
        x = bv_var("ch_x", 4)
        r = real_var("ch_r")
        assertions = [And(bv_ult(x, bv_val(5, 4)),
                          real_lt(r, real_val(1)))]
        composed, _ = compose_copies(assertions, [x], 2)
        names = {v.name for a in composed for v in free_variables(a)}
        assert "ch_r!c0" in names and "ch_r!c1" in names

    def test_single_copy_identity_semantics(self):
        x = bv_var("c1_x", 4)
        assertions = [bv_ult(x, bv_val(5, 4))]
        composed, projections = compose_copies(assertions, [x], 1)
        count = sum(1 for v in range(16)
                    if evaluate(composed[0], {projections[0][0]: v}))
        assert count == 5


class TestIntegerRoot:
    def test_exact_roots(self):
        assert _integer_root(8, 3) == 2
        assert _integer_root(81, 4) == 3
        assert _integer_root(1, 5) == 1

    def test_rounding(self):
        assert _integer_root(9, 3) == 2     # 2^3=8 closer than 3^3=27
        assert _integer_root(26, 3) == 3

    def test_degree_one_identity(self):
        assert _integer_root(123, 1) == 123

    def test_zero(self):
        assert _integer_root(0, 3) == 0

    @pytest.mark.parametrize("base,degree", [(7, 2), (13, 3), (99, 4)])
    def test_round_trip(self, base, degree):
        assert _integer_root(base ** degree, degree) == base

    def test_large_values_no_float_drift(self):
        base = 10 ** 6 + 3
        assert _integer_root(base ** 3, 3) == base


class TestCdmXorHash:
    def test_hash_term_is_bool(self):
        x = bv_var("cx_x", 6)
        rng = random.Random(3)
        term = _xor_hash_term([x], rng)
        assert term.sort.is_bool()

    def test_hash_halves_space_on_average(self):
        x = bv_var("cx_y", 6)
        fractions = []
        for seed in range(40):
            term = _xor_hash_term([x], random.Random(seed))
            members = sum(1 for v in range(64)
                          if evaluate(term, {x: v}))
            fractions.append(members / 64)
        mean = sum(fractions) / len(fractions)
        assert 0.35 <= mean <= 0.65

    def test_degenerate_empty_selection(self):
        x = bv_var("cx_z", 2)

        class ZeroRng:
            def random(self):
                return 0.9  # never selects a bit, rhs False

        term = _xor_hash_term([x], ZeroRng())
        # empty parity with rhs False is the constant True constraint
        assert evaluate(term, {x: 0}) is True
