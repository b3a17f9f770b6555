"""Tests for the native XOR engine, including CNF/XOR mixes."""

import random

import pytest

from repro.sat import CdclDriver
from tests.sat.test_solver_random import (
    brute_force_count,
    brute_force_sat,
    random_clauses,
)


class TestXorBasics:
    def test_unit_xor_forces_value(self):
        solver = CdclDriver()
        solver.new_vars(1)
        solver.add_xor([1], True)
        assert solver.solve() is True
        assert solver.model_value(1) is True

    def test_empty_odd_xor_is_unsat(self):
        solver = CdclDriver()
        solver.new_vars(1)
        # x ^ x = 1 simplifies to 0 = 1.
        assert not solver.add_xor([1, 1], True)
        assert solver.solve() is False

    def test_duplicate_vars_cancel(self):
        solver = CdclDriver()
        solver.new_vars(2)
        # x1 ^ x1 ^ x2 = 1  simplifies to  x2 = 1.
        solver.add_xor([1, 1, 2], True)
        assert solver.solve() is True
        assert solver.model_value(2) is True

    def test_two_var_equivalence(self):
        solver = CdclDriver()
        solver.new_vars(2)
        solver.add_xor([1, 2], False)  # x1 = x2
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.model_value(2) is True

    def test_xor_chain_propagates(self):
        solver = CdclDriver()
        solver.new_vars(4)
        solver.add_xor([1, 2], True)
        solver.add_xor([2, 3], True)
        solver.add_xor([3, 4], True)
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.model_value(1) is True
        assert solver.model_value(2) is False
        assert solver.model_value(3) is True
        assert solver.model_value(4) is False

    def test_inconsistent_xor_triangle(self):
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_xor([1, 2], True)
        solver.add_xor([2, 3], True)
        solver.add_xor([1, 3], True)  # sum of the three: 0 = 1
        assert solver.solve() is False

    def test_xor_with_level0_fixed_var(self):
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_clause([1])  # fixes x1 = true at level 0
        solver.add_xor([1, 2, 3], True)  # x2 ^ x3 = 0
        solver.add_clause([2])
        assert solver.solve() is True
        assert solver.model_value(3) is True


class TestXorRandom:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_gf2_systems(self, seed):
        """Pure XOR systems: solver agrees with brute force."""
        rng = random.Random(seed)
        num_vars = rng.randint(2, 8)
        xors = []
        for _ in range(rng.randint(1, num_vars + 3)):
            size = rng.randint(1, num_vars)
            variables = rng.sample(range(1, num_vars + 1), size)
            xors.append((variables, rng.random() < 0.5))
        solver = CdclDriver()
        solver.new_vars(num_vars)
        consistent = True
        for variables, rhs in xors:
            consistent = solver.add_xor(variables, rhs) and consistent
        expected = brute_force_sat(num_vars, [], xors)
        result = solver.solve() if consistent else False
        assert result == expected
        if result:
            model = solver.model()
            for variables, rhs in xors:
                parity = sum(model[v] for v in variables) % 2
                assert parity == (1 if rhs else 0)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_cnf_xor_mix(self, seed):
        """CNF + XOR mixes: the pact_xor workload shape."""
        rng = random.Random(500 + seed)
        num_vars = rng.randint(3, 8)
        clauses = random_clauses(rng, num_vars, rng.randint(1, 12))
        xors = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(2, num_vars)
            variables = rng.sample(range(1, num_vars + 1), size)
            xors.append((variables, rng.random() < 0.5))
        solver = CdclDriver()
        solver.new_vars(num_vars)
        consistent = True
        for clause in clauses:
            consistent = solver.add_clause(clause) and consistent
        for variables, rhs in xors:
            consistent = solver.add_xor(variables, rhs) and consistent
        expected = brute_force_sat(num_vars, clauses, xors)
        result = solver.solve() if consistent else False
        assert result == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_enumeration_with_xor(self, seed):
        """Counting under XOR constraints matches brute force.

        This is precisely what SaturatingCounter does per cell."""
        rng = random.Random(900 + seed)
        num_vars = rng.randint(3, 7)
        clauses = random_clauses(rng, num_vars, rng.randint(0, 6))
        xors = []
        for _ in range(rng.randint(1, 3)):
            variables = rng.sample(
                range(1, num_vars + 1), rng.randint(2, num_vars))
            xors.append((variables, rng.random() < 0.5))
        solver = CdclDriver()
        solver.new_vars(num_vars)
        consistent = True
        for clause in clauses:
            consistent = solver.add_clause(clause) and consistent
        for variables, rhs in xors:
            consistent = solver.add_xor(variables, rhs) and consistent
        expected = brute_force_count(num_vars, clauses, xors)
        if not consistent:
            assert expected == 0
            return
        count = 0
        while solver.solve():
            count += 1
            assert count <= 2 ** num_vars
            blocking = [
                -v if solver.model_value(v) else v
                for v in range(1, num_vars + 1)
            ]
            if not solver.add_clause(blocking):
                break
        assert count == expected

    def test_xor_halves_solution_count_statistically(self):
        """A random XOR over all vars should roughly halve the count —
        the core cell-splitting property pact relies on."""
        rng = random.Random(4242)
        num_vars = 8
        halved = 0
        trials = 20
        for _ in range(trials):
            variables = rng.sample(range(1, num_vars + 1),
                                   rng.randint(2, num_vars))
            rhs = rng.random() < 0.5
            count = brute_force_count(num_vars, [], [(variables, rhs)])
            assert count == 2 ** (num_vars - 1)
            halved += 1
        assert halved == trials
