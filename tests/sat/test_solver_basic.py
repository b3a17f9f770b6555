"""Unit tests for the CDCL core: propagation, conflicts, small formulas."""

import pytest

from repro.errors import ResourceBudgetError, SolverTimeoutError
from repro.sat import CdclDriver
from repro.utils.deadline import Deadline


def make_solver(n):
    solver = CdclDriver()
    solver.new_vars(n)
    return solver


class TestConstruction:
    def test_new_vars_are_sequential(self):
        solver = CdclDriver()
        assert solver.new_vars(3) == [1, 2, 3]
        assert solver.num_vars() == 3

    def test_add_clause_unknown_var_raises(self):
        solver = make_solver(2)
        with pytest.raises(ValueError):
            solver.add_clause([3])

    def test_tautology_is_dropped(self):
        solver = make_solver(1)
        assert solver.add_clause([1, -1])
        assert solver.num_clauses() == 0

    def test_duplicate_literals_collapse(self):
        solver = make_solver(2)
        solver.add_clause([1, 1, 2])
        assert solver.num_clauses() == 1

    def test_empty_clause_is_unsat(self):
        solver = make_solver(1)
        assert not solver.add_clause([])
        assert solver.solve() is False


class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        solver = make_solver(2)
        assert solver.solve() is True

    def test_single_unit(self):
        solver = make_solver(1)
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.model_value(1) is True
        assert solver.model_value(-1) is False

    def test_contradicting_units(self):
        solver = make_solver(1)
        solver.add_clause([1])
        assert not solver.add_clause([-1])
        assert solver.solve() is False

    def test_implication_chain(self):
        solver = make_solver(4)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, 4])
        assert solver.solve() is True
        assert all(solver.model_value(v) for v in (1, 2, 3, 4))

    def test_simple_unsat(self):
        solver = make_solver(2)
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            solver.add_clause(clause)
        assert solver.solve() is False

    def test_pigeonhole_3_into_2(self):
        # 3 pigeons, 2 holes: classic small UNSAT instance.
        solver = make_solver(6)  # var(p, h) = 2p + h - 2 for p in 1..3
        def var(p, h):
            return 2 * (p - 1) + h
        for p in (1, 2, 3):
            solver.add_clause([var(p, 1), var(p, 2)])
        for h in (1, 2):
            for p1 in (1, 2, 3):
                for p2 in range(p1 + 1, 4):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        assert solver.solve() is False

    def test_model_satisfies_clauses(self):
        solver = make_solver(5)
        clauses = [[1, 2, -3], [-1, 4], [3, -4, 5], [-2, -5], [2, 3, 4]]
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is True
        model = solver.model()
        for clause in clauses:
            assert any(
                model[abs(lit)] == (lit > 0) for lit in clause
            ), f"clause {clause} unsatisfied"

    def test_solve_is_repeatable(self):
        solver = make_solver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() is True
        assert solver.solve() is True


class TestBudgets:
    def test_expired_deadline_raises(self):
        solver = make_solver(30)
        import random
        rng = random.Random(7)
        for _ in range(120):
            clause = rng.sample(range(1, 31), 3)
            solver.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        with pytest.raises(SolverTimeoutError):
            solver.solve(deadline=Deadline(0.0))

    def test_conflict_budget_raises(self):
        # A hard instance (pigeonhole 6 into 5) with a tiny conflict budget.
        n_pigeons, n_holes = 6, 5
        solver = make_solver(n_pigeons * n_holes)
        def var(p, h):
            return (p - 1) * n_holes + h
        for p in range(1, n_pigeons + 1):
            solver.add_clause([var(p, h) for h in range(1, n_holes + 1)])
        for h in range(1, n_holes + 1):
            for p1 in range(1, n_pigeons + 1):
                for p2 in range(p1 + 1, n_pigeons + 1):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        with pytest.raises(ResourceBudgetError):
            solver.solve(conflict_budget=10)


class TestBlockingEnumeration:
    def test_enumerate_all_models(self):
        # x1 or x2 has exactly 3 models over 2 vars.
        solver = make_solver(2)
        solver.add_clause([1, 2])
        models = set()
        while solver.solve():
            model = tuple(solver.model_value(v) for v in (1, 2))
            models.add(model)
            blocking = [
                -v if solver.model_value(v) else v for v in (1, 2)
            ]
            solver.add_clause(blocking)
        assert models == {(True, False), (False, True), (True, True)}
