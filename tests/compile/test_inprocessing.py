"""Targeted tests for the inprocessing stages (probe, bce) and the
elimination fixpoint (bve and bce alternated with duplicate removal).

The stage-prefix property suite (``test_simplify_preservation.py``)
already checks every prefix of ``STAGES`` end-to-end through the
compile pipeline; these tests pin the stages directly: mechanism
(failed literals asserted, blocked clauses removed, the protection
rules honoured, variables eliminated once another elimination or a
duplicate's removal makes room) and the projected-count-preservation
property on random CNF+XOR states with an arbitrary frozen set — a
wider input class than the pipeline produces.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.artifact import CompileStats
from repro.compile.simplify import (
    STAGES, CnfState, eliminate_auxiliaries, eliminate_blocked_clauses,
    probe_failed_literals, propagate_units, run_stages,
)
from repro.sat.kernel import SatSnapshot


def make_snapshot(num_vars, clauses, xors=(), units=()):
    return SatSnapshot(
        num_vars=num_vars,
        clauses=tuple(tuple(c) for c in clauses),
        units=tuple(units),
        xors=tuple((tuple(variables), bool(rhs))
                   for variables, rhs in xors),
        ok=True)


def make_state(num_vars, clauses, xors=(), frozen=(), units=()):
    return CnfState(make_snapshot(num_vars, clauses, xors, units),
                    set(frozen))


def simplified(num_vars, clauses, frozen, stages=STAGES):
    """The state ``run_stages`` leaves, with its stats."""
    stats = CompileStats()
    snap, _support = run_stages(make_snapshot(num_vars, clauses),
                                set(frozen), sorted(frozen),
                                stages=stages, stats=stats)
    return CnfState(snap, set(frozen)), stats


def occurring(state: CnfState) -> set[int]:
    return {abs(lit) for clause in state.clauses for lit in clause}


def projected_count(state: CnfState, projection_vars) -> int:
    """Brute-force projected count of the state's formula (clauses +
    XOR rows + root assignment) over ``projection_vars``."""
    if not state.ok:
        return 0
    num_vars = state.num_vars
    projection = sorted(projection_vars)
    cells = set()
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = (False,) + bits
        if any(state.assign[var] != assignment[var]
               for var in state.assign):
            continue
        if not all(any(assignment[abs(lit)] == (lit > 0) for lit in c)
                   for c in state.clauses):
            continue
        if not all(
                sum(assignment[v] for v in variables) % 2
                == (1 if rhs else 0)
                for variables, rhs in state.xors):
            continue
        cells.add(tuple(assignment[var] for var in projection))
    return len(cells)


# ----------------------------------------------------------------------
# failed-literal probing: mechanism
# ----------------------------------------------------------------------
def test_probe_asserts_failed_literal():
    # (1 2) (1 -2): assuming -1 propagates 2 and -2 — conflict, so 1
    # is entailed and must join the root assignment.
    state = make_state(2, [[1, 2], [1, -2]])
    stats = CompileStats()
    probe_failed_literals(state, stats)
    assert state.ok
    assert state.assign.get(1) is True
    assert stats.failed_literals >= 1
    assert state.clauses == []  # both clauses satisfied and dropped


def test_probe_may_fix_frozen_variables():
    # Entailed units are sound for protected variables too.
    state = make_state(2, [[1, 2], [1, -2]], frozen={1, 2})
    probe_failed_literals(state, CompileStats())
    assert state.ok
    assert state.assign.get(1) is True


def test_probe_detects_unsat_when_both_polarities_fail():
    state = make_state(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]])
    probe_failed_literals(state, CompileStats())
    assert not state.ok


def test_probe_uses_xor_rows():
    # Binary XOR 1^2=0 makes 1 and 2 equivalent; clause (-1 -2) then
    # fails the assumption 1 (it propagates 2 and falsifies the
    # clause), so -1 is entailed.
    state = make_state(2, [[-1, -2]], xors=[([1, 2], False)])
    probe_failed_literals(state, CompileStats())
    assert state.ok
    assert state.assign.get(1) is False
    assert state.assign.get(2) is False


# ----------------------------------------------------------------------
# blocked-clause elimination: mechanism
# ----------------------------------------------------------------------
def test_bce_removes_blocked_clause():
    # (1 2) is blocked on 1: the only clause with -1 is (-1 -2), and
    # the resolvent (2 -2) is tautological.  Confluently, (-1 -2) is
    # then blocked too (no clause with 1 remains), so BCE drains both.
    state = make_state(2, [[1, 2], [-1, -2]])
    stats = CompileStats()
    eliminate_blocked_clauses(state, stats)
    assert state.ok
    assert stats.blocked_clauses == 2
    assert state.clauses == []


def test_bce_rechecks_clauses_a_later_removal_unblocks():
    # (1 2) is not blocked on 1 while (-1 3) stands, and 2 is frozen;
    # (-1 3) comes later and is blocked on 3 (no clause holds -3).
    # Removing it leaves (1 2) blocked on 1.
    state = make_state(3, [[1, 2], [-1, 3]], frozen={2})
    stats = CompileStats()
    eliminate_blocked_clauses(state, stats)
    assert stats.blocked_clauses == 2
    assert state.clauses == []


def test_bce_respects_frozen_and_xor_vars():
    state = make_state(2, [[1, 2], [-1, -2]], frozen={1, 2})
    stats = CompileStats()
    eliminate_blocked_clauses(state, stats)
    assert stats.blocked_clauses == 0
    assert len(state.clauses) == 2

    state = make_state(2, [[1, 2], [-1, -2]], xors=[([1, 2], True)])
    eliminate_blocked_clauses(state, stats)
    assert len(state.clauses) == 2


def test_bce_keeps_unblocked_clauses():
    # (1 2) resolved with (-1 2) on 1 gives (2): not tautological, and
    # var 2's resolvents aren't tautological either — nothing blocked
    # until the frozen set stops var-1-based removal entirely.
    state = make_state(2, [[1, 2], [-1, 2]], frozen={1})
    stats = CompileStats()
    eliminate_blocked_clauses(state, stats)
    # blocked on 2: no clause contains -2, so both clauses are blocked
    # on literal 2 (vacuously) and removed — a pure-literal special
    # case, sound because var 2 is unprotected.
    assert stats.blocked_clauses == 2
    assert state.clauses == []


# ----------------------------------------------------------------------
# the elimination fixpoint: mechanism
# ----------------------------------------------------------------------
# Variable 1 is the only unprotected variable besides the one that makes
# room for it.  It has three positive and two negative occurrences, so
# its six resolvents exceed NiVER's bound of five; once one positive
# occurrence goes, four resolvents fit a bound of four.  BVE tries
# variable 1 first, so a single pass in variable order misses it.
_NIVER_LOCKED = {
    # variable 5 is eliminated (one resolvent, (1 6), for two clauses)
    "bve": (6, [[1, 2], [1, 5], [1, -5, 6], [-1, 3], [-1, 4]],
            {2, 3, 4, 6}),
    # (1 9 2) is blocked on 9: every clause with -9 also holds -2.
    # Variable 9 occurs twelve times, over BVE's cap of ten.
    "bce": (9, [[1, 3], [1, 4], [1, 9, 2], [-1, 5], [-1, 6]]
            + [[-9, -2, a, b] for a, b in itertools.islice(
                itertools.combinations(range(3, 9), 2), 11)],
            {2, 3, 4, 5, 6, 7, 8}),
}


@pytest.mark.parametrize("maker", sorted(_NIVER_LOCKED))
def test_variable_eliminated_once_another_elimination_makes_room(maker):
    num_vars, clauses, frozen = _NIVER_LOCKED[maker]
    state = make_state(num_vars, clauses, frozen=frozen)
    before = projected_count(state, frozen)
    eliminate_auxiliaries(state)
    assert 1 in occurring(state)  # one pass in variable order keeps it

    state, stats = simplified(num_vars, clauses, frozen)
    assert 1 not in occurring(state)
    assert stats.aux_eliminated >= 1
    assert projected_count(state, frozen) == before


def test_duplicate_clause_is_dropped_and_stops_shielding():
    # (1 2 3) twice, the second copy reordered: with it, variable 1 has
    # three positive occurrences and six resolvents (bound five);
    # without it, four (bound four).
    clauses = [[1, 2, 3], [1, 4], [3, 1, 2], [-1, 5], [-1, 6]]
    frozen = {2, 3, 4, 5, 6}
    before = projected_count(make_state(6, clauses, frozen=frozen), frozen)

    state, stats = simplified(6, clauses, frozen, stages=("units", "bce"))
    assert state.clauses == [[1, 2, 3], [1, 4], [-1, 5], [-1, 6]]
    assert stats.clauses_removed == 1

    state, _stats = simplified(6, clauses, frozen)
    assert 1 not in occurring(state)
    assert projected_count(state, frozen) == before


def test_clause_blocked_once_a_later_round_eliminates_a_variable():
    # (7 -4) is blocked on 7 once the only other clause with -7, (1 -7),
    # gives way to the resolvent (-7 4).  Variable 1 is eliminated in
    # the second round: in the first, (-1 7 3) (blocked on 7) and
    # variable 5 still lock it.  Variable 7 stays over BVE's cap.
    fillers = [[7, a, b] for a, b in itertools.islice(
        itertools.combinations([2, 6, 8, 9, 10, 11], 2), 10)]
    clauses = [[1, 2], [1, 5], [1, -5, 6], [1, -7], [-1, 7, 3], [-1, 4],
               [7, -4]] + fillers
    frozen = {2, 3, 4, 6, 8, 9, 10, 11}
    before = projected_count(make_state(11, clauses, frozen=frozen),
                             frozen)
    state, stats = simplified(11, clauses, frozen, stages=("bve", "bce"))
    assert [7, -4] not in state.clauses
    assert [-7, 4] in state.clauses
    assert stats.blocked_clauses == 2
    assert projected_count(state, frozen) == before


# ----------------------------------------------------------------------
# projected-count preservation on random states
# ----------------------------------------------------------------------
@st.composite
def cnf_states(draw):
    num_vars = draw(st.integers(min_value=2, max_value=5))
    variables = st.integers(min_value=1, max_value=num_vars)
    clause = st.lists(variables, min_size=1, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs]))
    clauses = draw(st.lists(clause, min_size=0, max_size=7))
    xor = st.tuples(
        st.lists(variables, min_size=1, max_size=num_vars, unique=True),
        st.booleans())
    xors = draw(st.lists(xor, min_size=0, max_size=2))
    frozen = draw(st.sets(variables, max_size=num_vars))
    return num_vars, [list(c) for c in clauses], xors, frozen


@given(cnf_states())
@settings(max_examples=120, deadline=None)
def test_probe_preserves_projected_count(problem):
    num_vars, clauses, xors, frozen = problem
    state = make_state(num_vars, clauses, xors, frozen)
    before = projected_count(state, frozen)
    probe_failed_literals(state, CompileStats())
    assert projected_count(state, frozen) == before


@given(cnf_states())
@settings(max_examples=120, deadline=None)
def test_bce_preserves_projected_count(problem):
    num_vars, clauses, xors, frozen = problem
    state = make_state(num_vars, clauses, xors, frozen)
    propagate_units(state)
    before = projected_count(state, frozen)
    eliminate_blocked_clauses(state, CompileStats())
    assert projected_count(state, frozen) == before
    stats = CompileStats()
    eliminate_blocked_clauses(state, stats)
    assert stats.blocked_clauses == 0  # one call reaches the fixpoint


@given(cnf_states())
@settings(max_examples=80, deadline=None)
def test_probe_then_bce_compose(problem):
    num_vars, clauses, xors, frozen = problem
    state = make_state(num_vars, clauses, xors, frozen)
    before = projected_count(state, frozen)
    probe_failed_literals(state, CompileStats())
    eliminate_blocked_clauses(state, CompileStats())
    assert projected_count(state, frozen) == before


@given(cnf_states(), st.sampled_from([STAGES, ("bve",), ("bce",)]))
@settings(max_examples=150, deadline=None)
def test_elimination_fixpoint_preserves_projected_count(problem, stages):
    """``run_stages`` with the bve/bce fixpoint keeps the projected
    count, and leaves nothing another round would change."""
    num_vars, clauses, xors, frozen = problem
    snap = make_snapshot(num_vars, clauses, xors)
    before = projected_count(CnfState(snap, frozen), frozen)
    out, _support = run_stages(snap, set(frozen), sorted(frozen),
                               stages=stages)
    state = CnfState(out, frozen)
    assert projected_count(state, frozen) == before
    if state.ok:
        left = [list(clause) for clause in state.clauses]
        assert len({frozenset(clause) for clause in left}) == len(left)
        if "bve" in stages:
            eliminate_auxiliaries(state)
        if "bce" in stages:
            eliminate_blocked_clauses(state)
        assert state.clauses == left
