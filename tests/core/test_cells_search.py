"""SaturatingCounter, NextIndex (galloping search) and the iteration
chain tests."""

import threading

import pytest

from repro.core.cells import SATURATED, CallCounter, saturating_count
from repro.core.search import find_boundary, run_chain
from repro.errors import CounterError, SolverTimeoutError
from repro.smt import (
    Equals, Implies, SmtSolver, bv_extract, bv_ult, bv_val, bv_var,
    real_gt, real_lt, real_val, real_var,
)
from repro.utils.deadline import Deadline


class TestSaturatingCounter:
    def make(self, bound):
        solver = SmtSolver()
        x = bv_var(f"sc_x{bound}", 6)
        solver.assert_term(bv_ult(x, bv_val(bound, 6)))
        return solver, x

    def test_small_cell_counted_exactly(self):
        solver, x = self.make(7)
        calls = CallCounter()
        result = saturating_count(solver, [x], 20, Deadline.unlimited(),
                                  calls)
        assert result == 7
        assert calls.solver_calls == 8  # 7 SAT + 1 UNSAT

    def test_saturation(self):
        solver, x = self.make(30)
        calls = CallCounter()
        result = saturating_count(solver, [x], 10, Deadline.unlimited(),
                                  calls)
        assert result is SATURATED
        assert calls.solver_calls == 10  # stops right at thresh

    def test_zero_solutions(self):
        solver = SmtSolver()
        x = bv_var("sc_zero", 4)
        solver.assert_term(bv_ult(x, bv_val(0, 4)))  # unsatisfiable
        calls = CallCounter()
        result = saturating_count(solver, [x], 5, Deadline.unlimited(),
                                  calls)
        assert result == 0

    def test_formula_untouched_after_count(self):
        solver, x = self.make(7)
        calls = CallCounter()
        saturating_count(solver, [x], 20, Deadline.unlimited(), calls)
        # Counting again gives the same answer: blocks were popped.
        result = saturating_count(solver, [x], 20, Deadline.unlimited(),
                                  calls)
        assert result == 7

    def test_exact_boundary_is_saturated(self):
        solver, x = self.make(10)
        calls = CallCounter()
        result = saturating_count(solver, [x], 10, Deadline.unlimited(),
                                  calls)
        assert result is SATURATED  # thresh solutions means >= thresh


class TestProjectionBlocking:
    """A cell is enumerated by blocking each model's projection
    decisions (DESIGN.md §10.5): a projection variable no assertion
    mentions is still enumerated both ways, LRA lemmas added between
    models do not disturb the blocking, and every call but the last
    finds one new projected model."""

    THRESHOLDS = (7, 24, 25, 200)

    def check(self, solver, projection, expected):
        for thresh in self.THRESHOLDS:
            calls = CallCounter()
            result = saturating_count(solver, projection, thresh,
                                      Deadline.unlimited(), calls)
            if expected < thresh:
                assert result == expected
                assert calls.solver_calls == expected + 1
            else:
                assert result is SATURATED
                assert calls.solver_calls == thresh

    def test_unmentioned_projection_variable(self):
        solver = SmtSolver()
        x = bv_var("sc_free_x", 2)
        y = bv_var("sc_free_y", 4)
        solver.assert_term(bv_ult(y, bv_val(6, 4)))
        self.check(solver, [x, y], 4 * 6)

    def test_unmentioned_projection_variable_lra_cell(self):
        solver = SmtSolver()
        x = bv_var("sc_lra_x", 2)
        y = bv_var("sc_lra_y", 3)
        r = real_var("sc_lra_r")
        one = bv_val(1, 1)
        # y's bits 0 and 1 force contradictory bounds on r, so the
        # Boolean models with both set (y = 3, 7) fail the simplex.
        solver.assert_term(Implies(Equals(bv_extract(y, 0, 0), one),
                                   real_lt(r, real_val(1))))
        solver.assert_term(Implies(Equals(bv_extract(y, 1, 1), one),
                                   real_gt(r, real_val(2))))
        self.check(solver, [x, y], 4 * 6)
        assert solver.lra.conflicts  # lemmas were added between models


class TestCallCounterAtomicity:
    def test_concurrent_records_never_undercount(self):
        """The thread-backend race: many threads hammering one counter
        must not drop increments (a bare += would)."""
        calls = CallCounter()
        threads = 8
        per_thread = 5000
        barrier = threading.Barrier(threads)

        def worker(thread_index):
            barrier.wait()
            for i in range(per_thread):
                calls.record(is_sat=(i + thread_index) % 2 == 0)

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert calls.solver_calls == threads * per_thread
        assert calls.sat_answers == threads * per_thread // 2

    def test_merge_is_atomic_under_concurrency(self):
        calls = CallCounter()
        threads = 8
        merges = 2000

        def worker():
            for _ in range(merges):
                calls.merge(3, 2)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert calls.solver_calls == threads * merges * 3
        assert calls.sat_answers == threads * merges * 2


class TestFindBoundary:
    def synthetic(self, sizes):
        """count_at built from a fixed cell-size profile."""
        probes = []

        def count_at(index):
            probes.append(index)
            return sizes[index] if sizes[index] < 10 else SATURATED

        return count_at, probes

    def test_simple_ascent(self):
        # counts halve per hash: 64 32 16 8 ...
        sizes = [64, 32, 16, 8, 4, 2, 1, 0, 0]
        count_at, probes = self.synthetic(sizes)
        index, value, cache = find_boundary(count_at, 1, 8)
        assert index == 3
        assert value == 8
        assert cache[2] is SATURATED

    def test_starts_from_previous_boundary(self):
        sizes = [99] * 12 + [5] + [2] * 4
        count_at, probes = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 12, 16)
        assert index == 12
        assert value == 5
        assert len(probes) <= 6  # gallop down + bisect: O(log start)

    def test_descends_when_start_too_deep(self):
        sizes = [64, 32, 16, 8, 4, 2, 1, 0, 0]
        count_at, probes = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 8, 8)
        assert index == 3
        assert value == 8

    def test_logarithmic_probe_count(self):
        """The section III-D claim: O(log |S|) oracle calls."""
        boundary = 37
        sizes = [99] * boundary + [3] + [1] * 30
        count_at, probes = self.synthetic(sizes)
        index, _, _ = find_boundary(count_at, 1, 64)
        assert index == boundary
        assert len(probes) <= 2 * 7 + 2  # ~2 log2(64)

    def test_downward_gallop_is_logarithmic_in_start(self):
        """start far above the boundary: halve down, then bisect —
        O(log start) probes, not a linear walk."""
        boundary = 5
        sizes = [99] * boundary + [4] + [1] * 59
        count_at, probes = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 60, 64)
        assert index == boundary
        assert value == 4
        assert len(probes) <= 2 * 7 + 2  # ~2 log2(64)

    def test_start_at_max_index_with_boundary_one(self):
        sizes = [99] + [3] * 16
        count_at, probes = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 16, 16)
        assert index == 1
        assert value == 3

    def test_start_just_above_boundary(self):
        sizes = [99] * 7 + [5] + [2] * 8
        count_at, probes = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 8, 16)
        assert index == 7
        assert value == 5
        assert len(probes) <= 5  # halve once to 4, bisect back up

    def test_boundary_independent_of_start(self):
        """The warm-start soundness premise: every start returns the
        same (boundary, cell count)."""
        sizes = [99] * 9 + [6] + [2] * 23
        results = set()
        for start in (1, 3, 9, 10, 15, 32):
            count_at, _ = self.synthetic(sizes)
            index, value, _ = find_boundary(count_at, start, 32)
            results.add((index, value))
        assert results == {(9, 6)}

    def test_start_clamped_into_range(self):
        sizes = [64, 32, 16, 8, 4, 2, 1, 0, 0]
        count_at, _ = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 50, 8)  # start > cap
        assert (index, value) == (3, 8)
        count_at, _ = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, -2, 8)  # start < 1
        assert (index, value) == (3, 8)

    def test_boundary_at_one(self):
        sizes = [99, 2, 1, 1]
        count_at, _ = self.synthetic(sizes)
        index, value, _ = find_boundary(count_at, 1, 3)
        assert index == 1 and value == 2

    def test_saturation_to_cap_raises(self):
        sizes = [99] * 9
        count_at, _ = self.synthetic(sizes)
        with pytest.raises(CounterError):
            find_boundary(count_at, 1, 8)

    def test_empty_projection_cap_raises(self):
        with pytest.raises(CounterError):
            find_boundary(lambda i: 0, 1, 0)


class TestRunChain:
    def test_each_search_starts_at_the_previous_boundary(self):
        starts = []

        def iterate(index, warm_start):
            starts.append((index, warm_start))
            return 100 + index, 10 * index

        estimates = [7]
        run_chain(iterate, (3, 5, 9), estimates)
        assert starts == [(3, 1), (5, 30), (9, 50)]
        assert estimates == [7, 103, 105, 109]

    def test_a_failing_iteration_keeps_the_finished_estimates(self):
        def iterate(index, warm_start):
            if index == 2:
                raise SolverTimeoutError("budget spent")
            return index, warm_start + 1

        estimates = []
        with pytest.raises(SolverTimeoutError):
            run_chain(iterate, range(4), estimates)
        assert estimates == [0, 1]

    def test_warm_chain_finds_the_cold_boundaries_in_fewer_probes(self):
        """find_boundary under run_chain: the same boundaries as a cold
        start from 1 for every iteration, with fewer probes once the
        boundaries sit deep and move little."""
        boundaries = [41, 43, 40, 42]
        profiles = [[99] * boundary + [4] + [1] * (64 - boundary)
                    for boundary in boundaries]

        def run(warm):
            probes = []

            def iterate(index, warm_start):
                def count_at(hashes):
                    probes.append(hashes)
                    size = profiles[index][hashes]
                    return size if size < 10 else SATURATED
                found, _, _ = find_boundary(
                    count_at, warm_start if warm else 1, 64)
                return found, found

            estimates = []
            run_chain(iterate, range(len(profiles)), estimates)
            return estimates, len(probes)

        warm, warm_probes = run(True)
        cold, cold_probes = run(False)
        assert warm == cold == boundaries
        assert warm_probes < cold_probes
