"""CdclDriver.snapshot()/clone_from(): the compile pipeline's clause-DB
transfer must preserve satisfiability and projected counts exactly."""

import pickle
import random

import pytest

from repro.sat.kernel import CdclDriver
from repro.utils.deadline import Deadline


def _random_instance(seed, num_vars=8, num_clauses=18, num_xors=3):
    rng = random.Random(seed)
    solver = CdclDriver()
    solver.new_vars(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        lits = []
        for var in rng.sample(range(1, num_vars + 1), width):
            lits.append(var if rng.random() < 0.5 else -var)
        solver.add_clause(lits)
    for _ in range(num_xors):
        width = rng.randint(2, 4)
        variables = rng.sample(range(1, num_vars + 1), width)
        solver.add_xor(variables, rng.random() < 0.5)
    return solver


def _count_models(solver, variables):
    """Projected model count by blocking enumeration."""
    if not solver.ok:
        return 0
    solver.push()
    try:
        count = 0
        while solver.solve(deadline=Deadline(30)):
            count += 1
            assert count <= 1 << len(variables)
            blocking = [-var if solver.model_value(var) else var
                        for var in variables]
            if not solver.add_clause(blocking):
                break
        return count
    finally:
        solver.pop()


class TestSnapshotCloneEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_projected_counts_identical(self, seed):
        original = _random_instance(seed)
        snap = original.snapshot()
        clone = CdclDriver.from_snapshot(snap)
        projection = [1, 2, 3, 4]
        assert (_count_models(original, projection)
                == _count_models(clone, projection))

    @pytest.mark.parametrize("seed", range(10))
    def test_sat_answer_identical(self, seed):
        original = _random_instance(seed, num_clauses=30)
        clone = CdclDriver.from_snapshot(original.snapshot())
        assert (original.solve(deadline=Deadline(30))
                == clone.solve(deadline=Deadline(30)))

    def test_unsat_root_state_round_trips(self):
        solver = CdclDriver()
        solver.new_vars(2)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert not solver.ok
        clone = CdclDriver.from_snapshot(solver.snapshot())
        assert not clone.ok
        assert clone.solve() is False

    def test_snapshot_excludes_learnts_and_frames(self):
        solver = _random_instance(3)
        solver.solve(deadline=Deadline(30))  # may learn clauses
        snap = solver.snapshot()
        assert all(len(clause) >= 1 for clause in snap.clauses)
        clone = CdclDriver.from_snapshot(snap)
        assert clone.num_learnts() == 0
        assert clone.frame_depth == 0


class TestSnapshotDiscipline:
    def test_snapshot_inside_frame_rejected(self):
        solver = CdclDriver()
        solver.new_vars(2)
        solver.push()
        with pytest.raises(RuntimeError, match="frame depth 0"):
            solver.snapshot()

    def test_clone_into_dirty_solver_rejected(self):
        source = _random_instance(1)
        dirty = CdclDriver()
        dirty.new_var()
        with pytest.raises(RuntimeError, match="pristine"):
            dirty.clone_from(source.snapshot())

    def test_snapshot_pickles(self):
        snap = _random_instance(5).snapshot()
        revived = pickle.loads(pickle.dumps(snap))
        assert revived == snap
        assert (CdclDriver.from_snapshot(revived).solve(
            deadline=Deadline(30))
            == CdclDriver.from_snapshot(snap).solve(deadline=Deadline(30)))

    def test_units_survive_round_trip(self):
        solver = CdclDriver()
        solver.new_vars(4)
        solver.add_clause([2])
        solver.add_clause([-2, 3])  # propagates 3 at root
        snap = solver.snapshot()
        assert 2 in snap.units and 3 in snap.units
        clone = CdclDriver.from_snapshot(snap)
        clone.solve()
        assert clone.model_value(2) and clone.model_value(3)
