"""Projected-model enumeration in the CDCL driver (DESIGN.md §10.5).

The driver decides projection variables before any other variable, and
``block_projection`` blocks a model by the negation of its projection
decisions, then resumes the search at the asserting level.  These tests
enumerate seeded random CNF+XOR databases that way, inside a frame
sitting on hash frames, and hold the result to brute force.
"""

import itertools
import random

import pytest

from repro.errors import ResourceBudgetError
from repro.sat import CdclDriver
from repro.sat.types import TRUE


def _random_instance(rng):
    """A random clause/XOR database over ``num_vars`` variables, plus
    ``spare`` more that no constraint mentions, and a projection that
    holds some of each, with at least one variable fixed by a unit."""
    num_vars = rng.randint(6, 10)
    spare = rng.randint(1, 2)
    clauses = []
    for _ in range(rng.randint(num_vars, 2 * num_vars)):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    fixed = rng.sample(range(1, num_vars + 1), rng.randint(1, 2))
    clauses.extend([v if rng.random() < 0.5 else -v] for v in fixed)
    xors = []
    for _ in range(rng.randint(0, 2)):
        variables = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
        xors.append((variables, rng.random() < 0.5))
    others = [v for v in range(1, num_vars + 1) if v not in fixed]
    projection = sorted(
        set(rng.sample(others, rng.randint(1, len(others) - 1)))
        | {fixed[0]}
        | set(rng.sample(range(num_vars + 1, num_vars + spare + 1),
                         rng.randint(1, spare))))
    return num_vars + spare, clauses, xors, projection


def _hashes(rng, projection):
    """Zero to three random parity rows over the projection."""
    return [(rng.sample(projection, rng.randint(1, len(projection))),
             rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))]


def _brute_force(total, clauses, xors, projection):
    """The set of projections of all models."""
    found = set()
    for bits in itertools.product([False, True], repeat=total):
        assignment = (False,) + bits
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses) and all(
                sum(assignment[v] for v in variables) % 2 == rhs
                for variables, rhs in xors):
            found.add(tuple(assignment[v] for v in projection))
    return found


def _load(total, clauses, xors, hashes, projection):
    """A solver holding the database at its root frame and one pushed
    frame per hash row, with ``projection`` set."""
    solver = CdclDriver()
    solver.new_vars(total)
    for clause in clauses:
        solver.add_clause(clause)
    for variables, rhs in xors:
        solver.add_xor(variables, rhs)
    for variables, rhs in hashes:
        solver.push()
        solver.add_xor(variables, rhs)
    solver.set_projection(projection)
    return solver


def _leading_projection_decisions(solver, projection):
    """m, the number of leading projection decisions of the current SAT
    answer, after checking that no decision on another variable sits
    at or below the level of a projection variable's assignment."""
    trail, trail_lim = solver._trail, solver._trail_lim
    decided = [abs(trail[bound]) for bound in trail_lim]
    members = set(projection)
    leading = 0
    while leading < len(decided) and decided[leading] in members:
        leading += 1
    for var in projection:
        assert solver._level[var] <= leading, (
            f"projection variable {var} assigned at level "
            f"{solver._level[var]} above a non-projection decision")
    return leading


def _enumerate(solver, projection, leading_counts, conflict_budget=None):
    """Enumerate the projected models in a fresh frame; return them in
    the order found.  A cut-short search pops the frame and re-raises,
    with the models found so far attached to the exception."""
    solver.push()
    models = []
    try:
        while solver.solve(conflict_budget=conflict_budget):
            leading = _leading_projection_decisions(solver, projection)
            leading_counts[min(leading, 2)] += 1
            models.append(tuple(solver.model_value(v) for v in projection))
            solver.block_projection()
    except ResourceBudgetError as error:
        error.models = models
        raise
    finally:
        solver.pop()
    return models


def test_enumeration_matches_brute_force():
    """Every projected model comes back once, in every frame layout;
    the blocking clause has m = 0 (the frame goes UNSAT) and m = 1 (a
    level-0 unit) as well as longer shapes."""
    leading_counts = [0, 0, 0]
    for seed in range(40):
        rng = random.Random(7100 + seed)
        total, clauses, xors, projection = _random_instance(rng)
        hashes = _hashes(rng, projection)
        solver = _load(total, clauses, xors, hashes, projection)
        expected = _brute_force(total, clauses, xors + hashes, projection)
        for _ in range(2):  # again on the same solver, learnts retained
            models = _enumerate(solver, projection, leading_counts)
            assert len(models) == len(set(models)), f"seed {seed}"
            assert set(models) == expected, f"seed {seed}"
    assert all(leading_counts), leading_counts


def test_search_cut_short_mid_enumeration_then_fresh_enumeration():
    """A conflict budget that ends a search after some models were
    blocked, then pop() and a fresh enumeration: the same model set.
    Learnt clauses derived from blocking clauses must not survive the
    pop."""
    cut_after_models = 0
    leading_counts = [0, 0, 0]
    for seed in range(60):
        rng = random.Random(7300 + seed)
        total, clauses, xors, projection = _random_instance(rng)
        hashes = _hashes(rng, projection)
        solver = _load(total, clauses, xors, hashes, projection)
        expected = _brute_force(total, clauses, xors + hashes, projection)
        try:
            models = _enumerate(solver, projection, leading_counts,
                                conflict_budget=1)
        except ResourceBudgetError as error:
            assert set(error.models) <= expected
            cut_after_models += bool(error.models)
            models = _enumerate(solver, projection, leading_counts)
        assert len(models) == len(set(models)), f"seed {seed}"
        assert set(models) == expected, f"seed {seed}"
    assert cut_after_models, "no search was cut short mid-enumeration"


def test_unconstrained_projection_variable_is_enumerated_both_ways():
    solver = CdclDriver()
    solver.new_vars(3)
    solver.add_clause([1, 2])
    solver.set_projection([1, 3])
    models = _enumerate(solver, [1, 3], [0, 0, 0])
    assert sorted(models) == [(False, False), (False, True),
                              (True, False), (True, True)]


def test_block_resumes_at_the_asserting_level():
    """After a block with m >= 2 the trail keeps levels 1..m-1 and the
    next solve continues from there; a solve without a block starts
    again from level 0."""
    solver = CdclDriver()
    solver.new_vars(3)
    solver.set_projection([1, 2, 3])
    solver.push()
    assert solver.solve() is True
    assert _leading_projection_decisions(solver, [1, 2, 3]) == 3
    decisions = [solver._trail[bound] for bound in solver._trail_lim]
    solver.block_projection()
    assert solver.decision_level() == 2
    assert [solver._trail[bound] for bound in solver._trail_lim] == \
        decisions[:2]
    assert solver.value(-decisions[2]) == TRUE
    before = solver.stats["decisions"]
    assert solver.solve() is True
    assert solver.stats["decisions"] == before  # levels 1..2 kept
    model = [solver.model_value(v) for v in (1, 2, 3)]
    # A bare re-solve re-descends from level 0: two decisions, and the
    # blocking clause implies the third projection variable.
    assert solver.solve() is True
    assert solver.stats["decisions"] == before + 2
    assert [solver.model_value(v) for v in (1, 2, 3)] == model
    solver.pop()


def test_projection_must_be_root_variables():
    solver = CdclDriver()
    solver.new_vars(2)
    solver.push()
    local = solver.new_var()
    for bad in ([0], [3], [local], [-1]):
        with pytest.raises(ValueError):
            solver.set_projection(bad)
    solver.set_projection([1, 2])  # root variables, inside a frame
    solver.pop()


def test_block_needs_a_sat_answer():
    solver = CdclDriver()
    solver.new_vars(2)
    solver.add_clause([1, 2])
    solver.set_projection([1, 2])
    with pytest.raises(RuntimeError):
        solver.block_projection()
