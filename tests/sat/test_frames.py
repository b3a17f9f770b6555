"""Push/pop frame discipline: the incremental workload of SaturatingCounter."""

import pytest

from repro.sat import CdclDriver


class TestFrames:
    def test_pop_without_push_raises(self):
        solver = CdclDriver()
        with pytest.raises(RuntimeError):
            solver.pop()

    def test_clause_removed_on_pop(self):
        solver = CdclDriver()
        solver.new_vars(2)
        solver.add_clause([1, 2])
        solver.push()
        solver.add_clause([-1])
        assert solver.solve() is True
        assert solver.model_value(1) is False
        assert solver.model_value(2) is True
        solver.pop()
        assert solver.solve() is True  # only (x1 or x2) remains
        solver.add_clause([1])
        assert solver.solve() is True
        assert solver.model_value(1) is True

    def test_unsat_inside_frame_recovers(self):
        solver = CdclDriver()
        solver.new_vars(1)
        solver.add_clause([1])
        solver.push()
        solver.add_clause([-1])
        assert solver.solve() is False
        solver.pop()
        assert solver.solve() is True

    def test_frame_vars_are_dropped(self):
        solver = CdclDriver()
        solver.new_vars(2)
        solver.push()
        aux = solver.new_var()
        solver.add_clause([aux, 1])
        assert solver.num_vars() == 3
        solver.pop()
        assert solver.num_vars() == 2

    def test_xor_removed_on_pop(self):
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_clause([1])
        solver.push()
        solver.add_xor([1, 2], True)   # forces x2 = false
        solver.add_clause([2, 3])      # hence x3 = true
        assert solver.solve() is True
        assert solver.model_value(2) is False
        assert solver.model_value(3) is True
        solver.pop()
        solver.add_clause([2])  # now consistent: xor gone
        assert solver.solve() is True
        assert solver.model_value(2) is True

    def test_nested_frames(self):
        solver = CdclDriver()
        solver.new_vars(3)
        solver.add_clause([1, 2, 3])
        solver.push()
        solver.add_clause([-1])
        solver.push()
        solver.add_clause([-2])
        assert solver.solve() is True
        assert solver.model_value(3) is True
        solver.pop()
        solver.pop()
        assert solver.frame_depth == 0
        solver.add_clause([-3])
        assert solver.solve() is True  # x1 or x2 still possible

    def test_level0_implications_undone(self):
        """Implications derived inside a frame must not leak out."""
        solver = CdclDriver()
        solver.new_vars(2)
        solver.add_clause([-1, 2])  # x1 -> x2
        solver.push()
        solver.add_clause([1])      # forces x1, x2 at level 0 in-frame
        assert solver.solve() is True
        assert solver.model_value(2) is True
        solver.pop()
        solver.add_clause([-2])     # must be consistent after pop
        assert solver.solve() is True
        assert solver.model_value(2) is False
        assert solver.model_value(1) is False

    def test_enumeration_per_cell_pattern(self):
        """The SaturatingCounter pattern: push, hash, enumerate, pop."""
        solver = CdclDriver()
        variables = solver.new_vars(4)
        solver.add_clause([1, 2, 3, 4])
        total = 2 ** 4 - 1  # all assignments except all-false

        def enumerate_cell(xor_vars, rhs):
            solver.push()
            solver.add_xor(xor_vars, rhs)
            count = 0
            while solver.solve():
                count += 1
                blocking = [
                    -v if solver.model_value(v) else v for v in variables
                ]
                if not solver.add_clause(blocking):
                    break
            solver.pop()
            return count

        count0 = enumerate_cell([1, 2, 3, 4], False)
        count1 = enumerate_cell([1, 2, 3, 4], True)
        assert count0 + count1 == total
        # Original formula untouched afterwards.
        full = enumerate_cell([1, 1], False)  # vacuous xor
        assert full == total

    def test_many_frame_cycles_stay_consistent(self):
        solver = CdclDriver()
        solver.new_vars(6)
        solver.add_clause([1, 2])
        solver.add_clause([-3, 4])
        for round_no in range(50):
            solver.push()
            solver.add_xor([1, 3, 5], round_no % 2 == 0)
            solver.add_clause([5, 6])
            assert solver.solve() is True
            solver.pop()
        assert solver.num_clauses() == 2
