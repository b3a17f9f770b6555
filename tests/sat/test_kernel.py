"""Differential tests for the unified propagation kernel.

Both search drivers run over the same storage (`repro.sat.kernel`);
these tests pin the kernel boundary from three sides:

* **BCP agreement** — the CDCL driver's verdict, the component
  driver's DPLL enumeration and brute force agree on random CNF+XOR
  clause DBs, with the production snapshot hand-off in the loop;
* **learning soundness** — the learning component driver counts
  exactly (brute force), including the purge discipline around
  unsatisfiable sibling components and shared presolve lemmas;
* **cache-key stability** — component splits and canonical residual
  signatures match an independent reference implementation and a
  frozen golden value (the pre-kernel substrate's cache keys).
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.count_exact.counter import CcStats, _Search, _merge_driver_stats
from repro.count_exact.signature import component_signature
from repro.sat.kernel import (
    CdclDriver, ClauseDB, ComponentDriver, TRUE_V, UNSET_V, build_driver,
    presolve_lemmas,
)
from repro.utils.deadline import Deadline


# ----------------------------------------------------------------------
# brute-force references
# ----------------------------------------------------------------------
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


def reference_residual(db, values, cid):
    """Independent reimplementation of the canonical residual forms."""
    if cid < db.num_clauses:
        open_lits = []
        for lit in db.clauses[cid]:
            value = values[abs(lit)]
            if (value == TRUE_V) == (lit > 0) and value != UNSET_V:
                return None
            if value == UNSET_V:
                open_lits.append(lit)
        return ("c", tuple(sorted(open_lits)))
    variables, rhs = db.xors[cid - db.num_clauses]
    parity = bool(rhs)
    open_vars = []
    for var in variables:
        if values[var] == UNSET_V:
            open_vars.append(var)
        elif values[var] == TRUE_V:
            parity = not parity
    if not open_vars:
        return None
    return ("x", tuple(sorted(open_vars)), parity)


# ----------------------------------------------------------------------
# random clause-DB strategy
# ----------------------------------------------------------------------
@st.composite
def clause_dbs(draw):
    num_vars = draw(st.integers(min_value=2, max_value=6))
    variables = st.integers(min_value=1, max_value=num_vars)
    clause = st.lists(variables, min_size=1, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs]))
    clauses = draw(st.lists(clause, min_size=0, max_size=8))
    xor = st.tuples(
        st.lists(variables, min_size=1, max_size=num_vars, unique=True),
        st.booleans())
    xors = draw(st.lists(xor, min_size=0, max_size=3))
    return num_vars, [list(c) for c in clauses], xors


def dpll_count(driver: ComponentDriver, num_vars: int) -> int:
    """Model count by plain DPLL over the driver (no components, no
    cache): every pruning the driver performs must be model-exact."""
    var = next((v for v in range(1, num_vars + 1)
                if driver.values[v] == UNSET_V), None)
    if var is None:
        return 1
    total = 0
    for lit in (var, -var):
        mark = driver.decide(lit)
        if mark is None:
            continue
        # Propagated literals are forced, so counting only the branches
        # of the remaining unassigned variables is exact.
        total += dpll_count(driver, num_vars)
        driver.unwind(mark)
    return total


def component_count(num_vars, clauses, xors, *, roots=(), seed=()):
    """A projected count over all variables through the real search
    (component splitting + caching + purge discipline)."""
    db = ClauseDB(num_vars, clauses, xors)
    driver = ComponentDriver(db)
    driver.seed(seed)
    stats = CcStats()
    search = _Search(driver, frozenset(range(1, num_vars + 1)),
                     Deadline(None), stats)
    if not search.assert_roots(roots):
        count = 0
    else:
        count = search.count_scope(range(1, num_vars + 1))
    _merge_driver_stats(stats, driver)
    return count, stats


# ----------------------------------------------------------------------
# BCP / counting agreement across drivers
# ----------------------------------------------------------------------
@given(clause_dbs())
@settings(max_examples=120, deadline=None)
def test_drivers_and_brute_force_agree(db):
    num_vars, clauses, xors = db
    expected = brute_force_count(num_vars, clauses, xors)

    cdcl = CdclDriver()
    cdcl.new_vars(num_vars)
    ok = all(cdcl.add_clause(clause) for clause in clauses)
    ok = ok and all(cdcl.add_xor(variables, rhs)
                    for variables, rhs in xors)
    verdict = ok and cdcl.solve()
    assert verdict == (expected > 0)

    count, _stats = component_count(num_vars, clauses, xors)
    assert count == expected


@given(clause_dbs())
@settings(max_examples=120, deadline=None)
def test_snapshot_handoff_preserves_counts(db):
    """The production path: CDCL-side construction, snapshot, component
    driver over the snapshot (its root units asserted) — model counts
    must survive the hand-off and driver learning."""
    num_vars, clauses, xors = db
    expected = brute_force_count(num_vars, clauses, xors)

    solver = CdclDriver()
    solver.new_vars(num_vars)
    ok = all(solver.add_clause(clause) for clause in clauses)
    ok = ok and all(solver.add_xor(variables, rhs)
                    for variables, rhs in xors)
    snapshot = solver.snapshot()
    if not ok or not snapshot.ok:
        assert expected == 0
        return
    driver = build_driver("component", snapshot)
    if not driver.assert_roots(snapshot.units):
        assert expected == 0
        return
    assigned = len(driver.trail)
    count = dpll_count(driver, snapshot.num_vars)
    driver.unwind(assigned)
    # Snapshots may carry Tseitin-free formulas only, so every model of
    # the snapshot corresponds 1:1 to a model of the input here.
    assert count == expected


@given(clause_dbs())
@settings(max_examples=80, deadline=None)
def test_presolve_lemmas_are_count_preserving(db):
    """Everything `presolve_lemmas` harvests is entailed: asserting the
    units and seeding the clauses must not change the model count."""
    num_vars, clauses, xors = db
    expected = brute_force_count(num_vars, clauses, xors)
    solver = CdclDriver()
    solver.new_vars(num_vars)
    ok = all(solver.add_clause(clause) for clause in clauses)
    ok = ok and all(solver.add_xor(variables, rhs)
                    for variables, rhs in xors)
    snapshot = solver.snapshot()
    if not ok or not snapshot.ok:
        assert expected == 0
        return
    verdict, units, lemmas = presolve_lemmas(snapshot)
    assert verdict == (expected > 0)
    if verdict is False:
        return
    count, stats = component_count(
        num_vars, list(snapshot.clauses), snapshot.xors,
        roots=list(snapshot.units) + units, seed=lemmas)
    assert count == expected


# ----------------------------------------------------------------------
# learning soundness around unsatisfiable siblings
# ----------------------------------------------------------------------
def test_unsat_sibling_purges_cached_counts():
    """The purge discipline in action: an unsatisfiable component
    discovered after its siblings were cached must flush the scope's
    insertions (Sang et al. 2004)."""
    # vars 1-2: a satisfiable component (3 models); vars 3-4: an
    # unsatisfiable one, counted second (split orders by smallest var).
    clauses = [[1, 2],
               [3, 4], [3, -4], [-3, 4], [-3, -4]]
    count, stats = component_count(4, clauses, [])
    assert count == 0
    assert stats.purged >= 1  # the cached (1 v 2) count flushed
    assert stats.conflicts >= 1


def test_learning_prunes_sibling_branches():
    """The payoff mechanism: a conflict in one branch leaves a clause
    that propagates in sibling branches of the same search."""
    # XOR chain forces conflicts once a few variables are decided.
    clauses = [[1, 2, 3], [-1, -2], [-1, -3], [-2, -3]]
    xors = [([1, 2, 3, 4], True)]
    count, _ = component_count(4, clauses, xors)
    assert count == brute_force_count(4, clauses, xors)


@given(clause_dbs())
@settings(max_examples=80, deadline=None)
def test_full_search_matches_brute_force(db):
    """Counts through the real component search (splitting + caching +
    learning + purging) are exact."""
    num_vars, clauses, xors = db
    count, _ = component_count(num_vars, clauses, xors)
    assert count == brute_force_count(num_vars, clauses, xors)


# ----------------------------------------------------------------------
# cache-key stability
# ----------------------------------------------------------------------
@given(clause_dbs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_residual_signatures_match_reference(db, rng):
    num_vars, clauses, xors = db
    graph = ClauseDB(num_vars, clauses, xors)
    values = [UNSET_V] + [rng.choice([-1, 0, 0, 1])
                          for _ in range(num_vars)]
    for cid in range(len(graph)):
        assert (graph.residual(values, cid)
                == reference_residual(graph, values, cid))
    components, free = graph.split(values, range(1, num_vars + 1))
    seen = set()
    for component in components:
        # disjoint, sorted, signature built from member residuals only
        assert list(component.variables) == sorted(component.variables)
        assert not seen & set(component.variables)
        seen |= set(component.variables)
        signature = component_signature(graph, values, component)
        assert signature == tuple(sorted(
            reference_residual(graph, values, cid)
            for cid in component.constraints))
    for var in free:
        assert values[var] == UNSET_V
        assert all(var not in component.variables
                   for component in components)


def test_signature_golden_value():
    """Frozen cache key: if this changes, every persisted component
    cache entry and the PR 5 differential baselines shift."""
    graph = ClauseDB(4, [[1, 2], [-2, 3]], [([3, 4], True)])
    values = [UNSET_V] * 5
    values[1] = -1  # var 1 = false
    components, free = graph.split(values, range(1, 5))
    assert free == []
    assert len(components) == 1
    signature = component_signature(graph, values, components[0])
    assert signature == (("c", (-2, 3)), ("c", (2,)),
                         ("x", (3, 4), True))


# ----------------------------------------------------------------------
# learnt-DB reduction: LBD ranking with glue protection must leave
# verdicts (hence counts) exact
# ----------------------------------------------------------------------
@given(clause_dbs())
@settings(max_examples=100, deadline=None)
def test_forced_reduction_differential(db):
    """Verdicts match brute force with the learnt-DB cap forced low
    enough that reduction actually runs on these instances."""
    num_vars, clauses, xors = db
    solver = CdclDriver()
    solver.new_vars(num_vars)
    solver._max_learnts = 0.0
    ok = all(solver.add_clause(clause) for clause in clauses)
    ok = ok and all(solver.add_xor(variables, rhs)
                    for variables, rhs in xors)
    verdict = ok and solver.solve()
    assert verdict == (brute_force_count(num_vars, clauses, xors) > 0)


def test_lbd_recorded_and_glue_protected():
    """Learnt clauses carry their LBD, and LBD reduction never deletes
    glue clauses (lbd <= GLUE_LBD) even under a zero learnt cap."""
    from repro.sat.kernel import GLUE_LBD

    solver = CdclDriver()
    solver._max_learnts = 0.0
    nv = 10
    solver.new_vars(nv)
    # Pairwise at-most-one over 10 vars plus at-least-one: heavily
    # conflicting, so the driver learns and reduces.
    solver.add_clause(list(range(1, nv + 1)))
    for a in range(1, nv + 1):
        for b in range(a + 1, nv + 1):
            solver.add_clause([-a, -b])
    solver.add_xor(list(range(1, nv + 1)), False)  # parity 0: UNSAT
    assert solver.solve() is False
    learnt = [c for c in solver._learnts if not c.deleted]
    assert all(c.lbd >= 1 for c in learnt)
    # Re-run reduction by hand: glue clauses must survive it.
    glue_before = [c for c in learnt if c.lbd <= GLUE_LBD]
    solver._reduce_db()
    assert all(not c.deleted for c in glue_before)


def test_component_driver_counts_propagations():
    count, stats = component_count(3, [[1, 2], [-1, 3]], [])
    assert count == brute_force_count(3, [[1, 2], [-1, 3]])
    assert stats.propagations > 0


def test_driver_split_and_residual_delegate_to_db():
    """ComponentDriver's split/residual are the DB's own — learnt
    clauses must never leak into components or signatures."""
    db = ClauseDB(4, [[1, 2], [3, 4]])
    driver = ComponentDriver(db)
    driver.seed([(-1, -3)])  # a (true) lemma spanning both components
    components, free = driver.split(range(1, 5))
    assert [c.variables for c in components] == [(1, 2), (3, 4)]
    assert driver.residual(0) == ("c", (1, 2))
    baseline = ClauseDB(4, [[1, 2], [3, 4]])
    values = [UNSET_V] * 5
    assert baseline.split(values, range(1, 5))[0] == components
