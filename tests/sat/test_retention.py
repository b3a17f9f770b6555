"""Learnt-clause retention soundness and XorEngine.truncate coverage.

Retention keeps learnt clauses across ``pop()`` when their whole
derivation predates the popped frame.  Soundness criterion: retained
clauses are *entailed* by the surviving formula, so model enumeration
after any push/solve/pop history returns exactly the same model set as a
fresh solver — cross-checked against brute-force enumeration via
``XorEngine.check_model`` and direct clause evaluation.

The same push/solve/pop histories also pin the level-0 fixpoint that
``solve()`` relies on: it propagates only the queued tail of the trail,
never the whole level-0 trail again.
"""

import copy
import random

import pytest

from repro.errors import ResourceBudgetError
from repro.sat import CdclDriver


def _random_instance(rng, num_vars, num_clauses, num_xors):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(2, 3)
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v
                        for v in variables])
    xors = []
    for _ in range(num_xors):
        width = rng.randint(2, 4)
        xors.append((rng.sample(range(1, num_vars + 1), width),
                     rng.random() < 0.5))
    return clauses, xors


def _brute_force_models(num_vars, clauses, xors):
    models = set()
    for bits in range(1 << num_vars):
        assignment = [False] + [bool((bits >> (v - 1)) & 1)
                                for v in range(1, num_vars + 1)]
        ok = all(any(assignment[l] if l > 0 else not assignment[-l]
                     for l in clause) for clause in clauses)
        if ok:
            for variables, rhs in xors:
                if (sum(assignment[v] for v in variables) & 1) != rhs:
                    ok = False
                    break
        if ok:
            models.add(bits)
    return models


def _assert_root_fixpoint(solver):
    """Re-propagating the whole level-0 trail of a copy of ``solver``
    assigns nothing new and finds no conflict."""
    probe = copy.deepcopy(solver)
    probe._backtrack(0)
    if not probe.ok:
        return
    trail = list(probe._trail)
    probe._qhead = 0
    assert probe._propagate() is None
    assert probe._trail == trail


def _enumerate_models(solver, num_vars):
    """All models in the solver's current frame (enumerated in a nested
    blocking frame, like SaturatingCounter), each solve starting from a
    level-0 fixpoint."""
    models = set()
    solver.push()
    while True:
        _assert_root_fixpoint(solver)
        if not solver.solve():
            break
        bits = 0
        blocking = []
        for v in range(1, num_vars + 1):
            value = solver.model_value(v)
            if value:
                bits |= 1 << (v - 1)
            blocking.append(-v if value else v)
        models.add(bits)
        # XOR rows must agree with the model the solver reports.
        assert solver.xor.check_model(solver.true_mask)
        if not solver.add_clause(blocking):
            break
    solver.pop()
    return models


def _build(clauses, xors, num_vars):
    solver = CdclDriver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    for variables, rhs in xors:
        solver.add_xor(variables, rhs)
    return solver


class TestRetentionSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_model_set_exact_after_frame_cycles(self, seed):
        """Randomized push/solve/pop cycles never lose or invent models."""
        rng = random.Random(900 + seed)
        num_vars = 8
        base_clauses, base_xors = _random_instance(rng, num_vars, 6, 2)
        solver = _build(base_clauses, base_xors, num_vars)
        assert solver.retain_learnts

        for _ in range(6):
            extra_clauses, extra_xors = _random_instance(rng, num_vars,
                                                         3, 2)
            solver.push()
            for clause in extra_clauses:
                solver.add_clause(clause)
            for variables, rhs in extra_xors:
                solver.add_xor(variables, rhs)
            got = _enumerate_models(solver, num_vars)
            want = _brute_force_models(
                num_vars, base_clauses + extra_clauses,
                base_xors + extra_xors)
            assert got == want
            solver.pop()

        # After all pops (with whatever clauses were retained), the base
        # formula's model set is exactly the brute-force one.
        got = _enumerate_models(solver, num_vars)
        assert got == _brute_force_models(num_vars, base_clauses,
                                          base_xors)

    @pytest.mark.parametrize("seed", range(4))
    def test_retention_matches_delete_everything(self, seed):
        """Retained-mode model sets equal delete-everything-mode sets."""
        rng = random.Random(7700 + seed)
        num_vars = 7
        base_clauses, base_xors = _random_instance(rng, num_vars, 5, 2)
        frames = [_random_instance(rng, num_vars, 3, 1)
                  for _ in range(4)]

        def run(retain):
            solver = _build(base_clauses, base_xors, num_vars)
            solver.retain_learnts = retain
            sets = []
            for extra_clauses, extra_xors in frames:
                solver.push()
                for clause in extra_clauses:
                    solver.add_clause(clause)
                for variables, rhs in extra_xors:
                    solver.add_xor(variables, rhs)
                sets.append(_enumerate_models(solver, num_vars))
                solver.pop()
            sets.append(_enumerate_models(solver, num_vars))
            return sets, solver.stats["retained_learnts"]

        retained_sets, retained_count = run(True)
        plain_sets, plain_count = run(False)
        assert retained_sets == plain_sets
        assert plain_count == 0

    def test_retained_clauses_are_entailed(self):
        """Every clause surviving a pop is satisfied by every model of
        the surviving formula (direct entailment check)."""
        rng = random.Random(31)
        num_vars = 8
        base_clauses, base_xors = _random_instance(rng, num_vars, 7, 3)
        solver = _build(base_clauses, base_xors, num_vars)
        for _ in range(5):
            extra_clauses, extra_xors = _random_instance(rng, num_vars,
                                                         4, 1)
            solver.push()
            for clause in extra_clauses:
                solver.add_clause(clause)
            for variables, rhs in extra_xors:
                solver.add_xor(variables, rhs)
            _enumerate_models(solver, num_vars)
            solver.pop()
        survivors = [c for c in solver._learnts if not c.deleted]
        models = _brute_force_models(num_vars, base_clauses, base_xors)
        for bits in models:
            assignment = [False] + [bool((bits >> (v - 1)) & 1)
                                    for v in range(1, num_vars + 1)]
            for clause in survivors:
                assert any(assignment[l] if l > 0 else not assignment[-l]
                           for l in clause.lits), (
                    f"retained clause {clause.lits} kills model {bits:b}")

    @pytest.mark.parametrize("seed", range(6))
    def test_ladder_shape_retains_and_stays_sound(self, seed):
        """The hash-ladder workload (stacked XOR frames, enumeration in a
        nested blocking frame) actually exercises retention — and the
        model sets on the way down are still exact."""
        rng = random.Random(seed)
        num_vars = 10
        base_clauses = []
        solver = CdclDriver()
        solver.new_vars(num_vars)
        for _ in range(10):
            variables = rng.sample(range(1, num_vars + 1), 3)
            base_clauses.append([v if rng.random() < 0.5 else -v
                                 for v in variables])
            solver.add_clause(base_clauses[-1])
        rungs = []
        for _ in range(2):   # two ladder rungs of two XORs each
            rung = [(rng.sample(range(1, num_vars + 1),
                                rng.randint(3, 5)), rng.random() < 0.5)
                    for _ in range(2)]
            rungs.append(rung)
            solver.push()
            for variables, rhs in rung:
                solver.add_xor(variables, rhs)
        _enumerate_models(solver, num_vars)  # learn at full depth
        solver.pop()                         # drop rung 2, keep rung 1
        assert solver.stats["retained_learnts"] > 0
        got = _enumerate_models(solver, num_vars)
        assert got == _brute_force_models(num_vars, base_clauses,
                                          rungs[0])
        solver.pop()
        got = _enumerate_models(solver, num_vars)
        assert got == _brute_force_models(num_vars, base_clauses, [])

    def test_frame_local_variables_never_retained(self):
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_clause([1, 2, 3])
        solver.push()
        aux = solver.new_var()
        solver.add_clause([-aux, 1])
        solver.add_clause([aux, 2])
        while solver.solve():
            blocking = [-v if solver.model_value(v) else v
                        for v in range(1, 5)]
            if not solver.add_clause(blocking):
                break
        solver.pop()
        assert solver.num_vars() == 3
        for clause in solver._learnts:
            if not clause.deleted:
                assert all(abs(l) <= 3 for l in clause.lits)


class TestXorTruncate:
    def test_truncate_rebuilds_watch_lists(self):
        solver = CdclDriver()
        solver.new_vars(6)
        mark = solver.xor.mark()
        assert mark == 0
        solver.add_xor([1, 2, 3], True)
        inner = solver.xor.mark()
        solver.add_xor([4, 5], False)
        solver.add_xor([2, 5, 6], True)
        assert len(solver.xor) == 3
        solver.xor.truncate(inner)
        assert len(solver.xor) == 1
        # Every watch entry points at a live row watching that variable.
        for var, rows in solver.xor._watch.items():
            for index in rows:
                row = solver.xor.rows[index]
                assert var in (row.w1, row.w2)
        # The surviving row still propagates: x1 xor x2 xor x3 = 1.
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve() is True
        assert solver.model_value(3) is True

    def test_truncate_beyond_rows_raises(self):
        solver = CdclDriver()
        solver.new_vars(2)
        with pytest.raises(ValueError):
            solver.xor.truncate(5)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_push_solve_pop_with_xors(self, seed):
        """Stacked XOR frames + truncation stay consistent with brute
        force across many cycles (watch-list rebuild under churn)."""
        rng = random.Random(4400 + seed)
        num_vars = 7
        base_clauses, base_xors = _random_instance(rng, num_vars, 4, 2)
        solver = _build(base_clauses, base_xors, num_vars)
        for _ in range(8):
            extra = [(rng.sample(range(1, num_vars + 1), rng.randint(2, 4)),
                      rng.random() < 0.5) for _ in range(2)]
            solver.push()
            for variables, rhs in extra:
                solver.add_xor(variables, rhs)
            got = _enumerate_models(solver, num_vars)
            want = _brute_force_models(num_vars, base_clauses,
                                       base_xors + extra)
            assert got == want
            solver.pop()
            assert len(solver.xor) <= len(base_xors)


def _root_len(solver):
    return solver._trail_lim[0] if solver._trail_lim else len(solver._trail)


def _satisfies(model, clauses, xors):
    return (all(any(model[l] if l > 0 else not model[-l] for l in clause)
                for clause in clauses)
            and all(sum(model[v] for v in variables) % 2 == rhs
                    for variables, rhs in xors))


def _random_history(seed, covered):
    """One random push/add/solve/pop history over 8 variables; tallies
    in ``covered`` the level-0 paths it went through."""
    rng = random.Random(6600 + seed)
    num_vars = 8
    hidden = [None] + [rng.random() < 0.5 for _ in range(num_vars)]
    solver = CdclDriver()
    solver.new_vars(num_vars)
    frames = [([], [])]  # (clauses, xors) added in each frame

    def clause_of(width, planted):
        while True:
            clause = [v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, num_vars + 1), width)]
            if not planted or any(hidden[abs(l)] == (l > 0)
                                  for l in clause):
                return clause

    def solve():
        clauses = [c for frame in frames for c in frame[0]]
        xors = [x for frame in frames for x in frame[1]]
        root_rows = sum(row.birth == 0 for row in solver.xor.rows)
        if len(frames) == 1 and root_rows >= 2:
            covered["root_elimination"] += 1
        root = _root_len(solver)
        _assert_root_fixpoint(solver)
        verdict = solver.solve()
        if len(frames) > 1 and _root_len(solver) > root:
            covered["unit_learnts"] += 1
        if verdict:
            assert _satisfies(solver.model(), clauses, xors)
        else:
            assert not _brute_force_models(num_vars, clauses, xors)
        return verdict

    for _ in range(40):
        op = rng.random()
        planted = len(frames) == 1  # the root formula stays satisfiable
        if op < 0.35:
            clause = clause_of(rng.choice((1, 2, 3, 3, 3)), planted)
            if len(clause) == 1 and not planted:
                covered["frame_units"] += 1
            frames[-1][0].append(clause)
            solver.add_clause(clause)
        elif op < 0.45:
            variables = rng.sample(range(1, num_vars + 1), rng.randint(2, 4))
            rhs = (sum(hidden[v] for v in variables) % 2 == 1
                   if planted else rng.random() < 0.5)
            frames[-1][1].append((variables, rhs))
            solver.add_xor(variables, rhs)
        elif op < 0.55 and len(frames) < 4:
            frames.append(([], []))
            solver.push()
        elif op < 0.65 and len(frames) > 1:
            frames.pop()
            solver.pop()
        elif solve() and planted:
            # A lemma the model violates but the hidden assignment
            # satisfies, then solve again.
            model = solver.model()
            lemma = [v if hidden[v] else -v for v in range(1, num_vars + 1)
                     if model[v] != hidden[v]][:3]
            if lemma:
                covered["lemmas"] += 1
                frames[-1][0].append(lemma)
                solver.add_clause(lemma)
                solve()
    solve()


class TestRootFixpoint:
    def test_random_histories_solve_from_a_root_fixpoint(self):
        """Random push/add/solve/pop histories: before every solve the
        level-0 trail is at fixpoint, every SAT model satisfies every
        active clause and row, and every UNSAT verdict is brute-force
        UNSAT.  The histories cover units inside frames, root XOR rows
        that make ``eliminate_root`` run, clauses added between solves
        (the LRA lemma path) and unit learnt clauses."""
        covered = dict.fromkeys(
            ("frame_units", "root_elimination", "lemmas", "unit_learnts"),
            0)
        for seed in range(30):
            _random_history(seed, covered)
        assert all(covered.values()), covered

    def test_cut_short_search_leaves_no_unpropagated_root_literal(self):
        """A conflict budget can end a search right after a unit learnt
        is enqueued at level 0; the next frame still opens on a
        fixpoint, with the unit's consequences at level 0."""
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_clause([1, 2])
        solver.add_clause([1, -2])
        solver.add_clause([-1, 3])
        # Deciding -1 conflicts at once; the learnt unit 1 implies 3.
        with pytest.raises(ResourceBudgetError):
            solver.solve(conflict_budget=1)
        assert solver._trail == [1]
        solver.push()
        assert solver._trail == [1, 3]
        _assert_root_fixpoint(solver)
        assert solver.solve() is True
        solver.pop()
        assert solver._trail[:2] == [1, 3]
        _assert_root_fixpoint(solver)
