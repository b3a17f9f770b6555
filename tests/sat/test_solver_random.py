"""Randomised cross-checks of the CDCL solver against brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CdclDriver
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
    solver = CdclDriver()
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
    solver = CdclDriver()
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
    solver = CdclDriver()
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
        self.solver = CdclDriver()
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
    solver = CdclDriver()
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


def _assert_heap_entries(solver):
    """Every unassigned constrained variable has a heap entry: in the
    projection heap if it is projected, else in the order heap."""
    projected = {var for _, var in solver._proj_heap}
    ordered = {var for _, var in solver._order_heap}
    for var in range(1, solver.num_vars() + 1):
        if solver._constrained[var] and solver.value(var) == UNASSIGNED:
            heap = projected if solver._projected[var] else ordered
            assert var in heap, f"variable {var} has no heap entry"


def _random_history(rng, steps=60):
    """Run a random push/add/set_projection/solve/block_projection/pop
    history, checking the heap invariant after each step; returns the
    number of activity rescales seen (the only step that lowers
    ``_var_inc``).  Every clause and row holds under one hidden
    assignment, so only blocking clauses make a frame unsatisfiable
    and the searches meet conflicts."""
    solver = CdclDriver()
    hidden = [None]

    def new_var():
        hidden.append(rng.random() < 0.5)
        return solver.new_var()

    def planted_clause(num_vars):
        while True:
            clause = [v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, num_vars + 1), 3)]
            if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
                return clause

    for _ in range(rng.randint(10, 14)):
        new_var()
    for _ in range(4 * solver.num_vars()):
        solver.add_clause(planted_clause(solver.num_vars()))
    rescales = 0
    for _ in range(steps):
        depth = solver.frame_depth
        num_vars = solver.num_vars()
        root_vars = solver._frames[0].num_vars if depth else num_vars
        var_inc = solver._var_inc
        action = rng.choice(("clause", "clause", "clause", "xor", "var",
                             "push", "pop", "projection", "solve",
                             "solve"))
        if action == "clause":
            solver.add_clause(planted_clause(num_vars))
        elif action == "xor":
            variables = rng.sample(range(1, num_vars + 1), 3)
            solver.add_xor(variables,
                           sum(hidden[v] for v in variables) % 2 == 1)
        elif action == "var":
            new_var()
            solver.add_clause(planted_clause(num_vars + 1))
        elif action == "push" and depth < 3:
            solver.push()
        elif action == "pop" and depth:
            solver.pop()
            del hidden[solver.num_vars() + 1:]
        elif action == "projection":
            solver.set_projection(rng.sample(
                range(1, root_vars + 1), rng.randint(0, root_vars)))
        elif action == "solve":
            if solver.solve() and solver._projection:
                _assert_heap_entries(solver)
                if rng.random() < 0.8:
                    solver.block_projection()
        _assert_heap_entries(solver)
        if solver._var_inc < var_inc:
            rescales += 1
    return rescales


@pytest.mark.parametrize("seed", range(40))
def test_unassigned_constrained_variables_keep_a_heap_entry(seed):
    """The invariant that lets ``_decide`` answer SAT once both heaps
    are empty, over random histories."""
    _random_history(random.Random(7300 + seed))


def test_heap_entries_survive_an_activity_rescale(monkeypatch):
    """The same invariant across ``_bump_var``'s rescale, which rebuilds
    both heaps (forced here by a low rescale threshold)."""
    from repro.sat import kernel
    monkeypatch.setattr(kernel, "_ACTIVITY_RESCALE", 4.0)
    rng = random.Random(7299)
    rescales = sum(_random_history(rng, steps=120) for _ in range(5))
    assert rescales > 0
