"""Randomised cross-checks of the CDCL solver against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import SatSolver
from repro.sat.types import FALSE, UNASSIGNED


def brute_force_sat(num_vars, clauses, xors=()):
    """Exhaustive satisfiability check for small instances."""
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = (False,) + bits  # 1-based
        ok = all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        )
        if ok and all(
            sum(assignment[v] for v in variables) % 2 == (1 if rhs else 0)
            for variables, rhs in xors
        ):
            return True
    return False


def brute_force_count(num_vars, clauses, xors=()):
    count = 0
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = (False,) + bits
        ok = all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        )
        if ok and all(
            sum(assignment[v] for v in variables) % 2 == (1 if rhs else 0)
            for variables, rhs in xors
        ):
            count += 1
    return count


def random_clauses(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append(
            [v if rng.random() < 0.5 else -v for v in variables]
        )
    return clauses


@pytest.mark.parametrize("seed", range(30))
def test_random_3sat_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(3, 9)
    num_clauses = rng.randint(2, 4 * num_vars)
    clauses = random_clauses(rng, num_vars, num_clauses)
    solver = SatSolver()
    solver.new_vars(num_vars)
    consistent = True
    for clause in clauses:
        consistent = solver.add_clause(clause) and consistent
    expected = brute_force_sat(num_vars, clauses)
    if not consistent:
        assert expected is False
    else:
        result = solver.solve()
        assert result == expected
        if result:
            model = solver.model()
            for clause in clauses:
                assert any(model[abs(lit)] == (lit > 0) for lit in clause)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_hypothesis_random_instances(seed):
    rng = random.Random(seed)
    num_vars = rng.randint(2, 8)
    clauses = random_clauses(rng, num_vars, rng.randint(1, 24))
    solver = SatSolver()
    solver.new_vars(num_vars)
    consistent = True
    for clause in clauses:
        consistent = solver.add_clause(clause) and consistent
    expected = brute_force_sat(num_vars, clauses)
    result = solver.solve() if consistent else False
    assert result == expected


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_matches_brute_force_count(seed):
    """Blocking-clause enumeration yields exactly the brute-force count."""
    rng = random.Random(1000 + seed)
    num_vars = rng.randint(2, 7)
    clauses = random_clauses(rng, num_vars, rng.randint(1, 12))
    solver = SatSolver()
    solver.new_vars(num_vars)
    consistent = True
    for clause in clauses:
        consistent = solver.add_clause(clause) and consistent
    expected = brute_force_count(num_vars, clauses)
    if not consistent:
        assert expected == 0
        return
    count = 0
    while solver.solve():
        count += 1
        assert count <= 2 ** num_vars, "enumeration runaway"
        blocking = [
            -v if solver.model_value(v) else v
            for v in range(1, num_vars + 1)
        ]
        if not solver.add_clause(blocking):
            break
    assert count == expected


def _planted_formula(rng, num_vars, num_clauses, num_xors):
    """Random 3-literal clauses and XOR rows all satisfied by one hidden
    assignment, so the formula is satisfiable."""
    hidden = [None] + [rng.random() < 0.5 for _ in range(num_vars)]
    clauses = []
    while len(clauses) < num_clauses:
        clause = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, num_vars + 1), 3)]
        if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
            clauses.append(clause)
    xors = []
    for _ in range(num_xors):
        variables = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
        xors.append((variables, sum(hidden[v] for v in variables) % 2 == 1))
    return clauses, xors


class _Mirror:
    """A solver over ``total`` variables holding a formula renumbered by
    the increasing map ``to_var`` (formula variable v is solver variable
    ``to_var[v - 1]``); solver variables outside its image are
    unconstrained."""

    def __init__(self, total, to_var, clauses, xors):
        self.to_var = to_var
        self.solver = SatSolver()
        self.solver.new_vars(total)
        self.unconstrained = sorted(set(range(1, total + 1)) - set(to_var))
        for clause in clauses:
            self.add_clause(clause)
        for variables, rhs in xors:
            self.solver.add_xor([to_var[v - 1] for v in variables], rhs)

    def add_clause(self, clause):
        self.solver.add_clause([self.to_var[lit - 1] if lit > 0
                                else -self.to_var[-lit - 1]
                                for lit in clause])

    def solve(self):
        """Verdict, model on the formula's variables, search counters."""
        verdict = self.solver.solve()
        model = None
        if verdict:
            model = tuple(self.solver.model_value(var)
                          for var in self.to_var)
            full = self.solver.model()
            for var in self.unconstrained:
                assert self.solver.model_value(var) is False
                assert self.solver.model_value(-var) is True
                assert full[var] is False
        return verdict, model, dict(self.solver.stats)


@pytest.mark.parametrize("seed", range(16))
def test_unconstrained_variables_never_change_the_search(seed):
    """Interleaving variables that no clause or XOR row mentions leaves
    every solve's verdict, model and search counters (decisions
    included: such variables are never decided) as they are without
    them, across a push/blocking-clause/pop cycle."""
    rng = random.Random(5100 + seed)
    num_vars = rng.randint(8, 12)
    clauses, xors = _planted_formula(rng, num_vars, 4 * num_vars,
                                     rng.randint(1, 3))
    total = num_vars + rng.randint(3, 6)
    compact = _Mirror(num_vars, list(range(1, num_vars + 1)), clauses,
                      xors)
    spread = _Mirror(total, sorted(rng.sample(range(1, total + 1),
                                              num_vars)), clauses, xors)

    def step(action):
        results = [action(mirror) for mirror in (compact, spread)]
        assert results[0] == results[1]
        return results[0]

    verdict, model, _stats = step(_Mirror.solve)
    assert verdict is True
    blocking = [-v if value else v for v, value in enumerate(model, 1)]
    step(lambda mirror: mirror.solver.push())
    step(lambda mirror: mirror.add_clause(blocking))
    verdict, _model, _stats = step(_Mirror.solve)
    assert verdict == (brute_force_count(num_vars, clauses, xors) > 1)
    step(lambda mirror: mirror.solver.pop())
    verdict, _model, _stats = step(_Mirror.solve)
    assert verdict is True

    # A clause that mentions a variable makes it a decision candidate
    # from then on, even one dropped as a tautology: the next solve
    # decides and propagates it once (the saved phases are a model, so
    # there is no conflict and no restart) and nothing else moves.
    var = spread.unconstrained[0]
    spread.solver.add_clause([var, -var])
    assert compact.solver.solve() and spread.solver.solve()
    assert spread.solver.value(var) == FALSE
    grown = dict(spread.solver.stats)
    grown["decisions"] -= 1
    grown["propagations"] -= 1
    assert grown == compact.solver.stats


def test_reused_frame_variable_number_starts_unconstrained():
    """A frame-local variable leaves heap entries behind when its frame
    pops; the unconstrained variable that reuses its number is still
    never decided."""
    solver = SatSolver()
    solver.new_vars(2)
    solver.add_clause([1, 2])
    solver.push()
    local = solver.new_var()
    solver.add_clause([-local, -1])
    solver.add_clause([local, 2])
    assert solver.solve() is True
    assert solver.value(local) != UNASSIGNED
    solver.pop()
    reused = solver.new_var()
    assert reused == local
    assert solver.solve() is True
    assert solver.value(reused) == UNASSIGNED
    assert solver.model_value(reused) is False
    assert solver.model()[reused] is False
