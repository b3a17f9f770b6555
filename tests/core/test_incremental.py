"""The incremental hash-ladder layer (section III-F).

The determinism contract: warm starts and ladder frames change the probe
*order*, learnt-clause retention changes solver *speed* — none of them
may change per-iteration estimates, which are pure functions of
(formula, config, iteration index).  The reference runs every iteration
with none of that state: a fresh solver per iteration, the search
started at index 1 and learnt clauses dropped on every pop.
"""

import pytest

from repro.core import HashLadder, PactConfig, cdm_count, pact_count
from repro.core.cdm import (
    build_cdm_solver, cdm_iteration_estimate, copy_count,
)
from repro.core.cells import CallCounter, saturating_count
from repro.core.constants import get_constants
from repro.core.pact import build_solver, iteration_estimate, max_hash_index
from repro.core.slicing import total_bits
from repro.engine.pool import ExecutionPool
from repro.errors import CounterError
from repro.smt import SmtSolver, bv_ult, bv_val, bv_var
from repro.utils.deadline import Deadline

FAMILIES = ("xor", "prime", "shift")


def _dense_formula(width, name):
    x = bv_var(name, width)
    bound = (1 << width) - (1 << (width - 3))
    return [bv_ult(x, bv_val(bound, width))], [x]


def _config(family, iterations=4):
    return PactConfig(family=family, seed=11,
                      iteration_override=iterations)


def _reference(formula, projection, config):
    """pact's estimates and solver calls without incremental state: the
    initial count and every iteration on a fresh solver, each search
    started at index 1, learnt clauses dropped on every pop."""
    thresh, _, slice_width = get_constants(
        config.epsilon, config.delta, config.family)
    max_index = max_hash_index(projection, config.family, slice_width)
    calls = CallCounter()
    solver, _ = build_solver(formula, projection)
    saturating_count(solver, projection, thresh, Deadline.unlimited(),
                     calls)
    estimates = []
    for iteration in range(config.iteration_override):
        solver, flat_bits = build_solver(formula, projection)
        solver.sat.retain_learnts = False
        estimate, _ = iteration_estimate(
            solver, projection, flat_bits, config, thresh, slice_width,
            max_index, Deadline.unlimited(), calls, iteration,
            warm_start=1)
        estimates.append(estimate)
    return estimates, calls.solver_calls


class TestBitIdenticalEstimates:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_start_never_changes_estimates(self, family):
        formula, projection = _dense_formula(10, f"inc_{family}")
        config = _config(family)
        serial = pact_count(formula, projection, config)
        estimates, _ = _reference(formula, projection, config)
        assert serial.solved
        assert serial.estimates == estimates

    def test_warm_start_reduces_solver_calls(self):
        # Deep boundaries (wide dense space) is where galloping from the
        # previous boundary beats doubling up from index 1.
        formula, projection = _dense_formula(14, "inc_calls")
        config = _config("xor", iterations=5)
        serial = pact_count(formula, projection, config)
        estimates, calls = _reference(formula, projection, config)
        assert serial.estimates == estimates
        assert serial.solver_calls < calls

    def test_cdm_warm_start_never_changes_estimates(self):
        # epsilon=2 keeps the self-composition at q=2 copies.
        formula, projection = _dense_formula(6, "inc_cdm_ref")
        serial = cdm_count(formula, projection, epsilon=2.0, seed=11,
                           iteration_override=3)
        copies = copy_count(2.0)
        calls = CallCounter()
        estimates = []
        for iteration in range(3):
            solver, flat_projection = build_cdm_solver(
                formula, projection, copies)
            solver.sat.retain_learnts = False
            estimate, _ = cdm_iteration_estimate(
                solver, flat_projection, 11, copies,
                total_bits(flat_projection), Deadline.unlimited(), calls,
                iteration, warm_start=1)
            estimates.append(estimate)
        assert serial.solved
        assert serial.estimates == estimates

    def test_fanout_workers_match_serial_with_warm_chains(self):
        formula, projection = _dense_formula(10, "inc_fan")
        config = _config("xor")
        serial = pact_count(formula, projection, config)
        fanned = pact_count(formula, projection, config,
                            pool=ExecutionPool(2, "process"))
        assert fanned.estimates == serial.estimates

    def test_cdm_ladder_matches_known_count(self):
        x = bv_var("inc_cdm", 7)
        result = cdm_count([bv_ult(x, bv_val(90, 7))], [x], seed=2,
                           iteration_override=3)
        assert result.solved
        assert abs(result.estimate - 90) <= 0.8 * 90


class TestHashLadder:
    def _solver(self):
        solver = SmtSolver()
        x = bv_var("hl_x", 6)
        solver.assert_term(bv_ult(x, bv_val(50, 6)))
        bits = solver.ensure_bits(x)
        return solver, x, bits

    def test_moves_are_deltas(self):
        solver, x, bits = self._solver()
        asserted = []

        def assert_hash(s, index):
            asserted.append(index)
            s.assert_xor_bits([bits[index % len(bits)]], False)

        ladder = HashLadder(solver, assert_hash)
        ladder.set_depth(3)
        assert asserted == [1, 2, 3]
        ladder.set_depth(5)
        assert asserted == [1, 2, 3, 4, 5]
        ladder.set_depth(2)          # pops only, no re-assertion
        assert asserted == [1, 2, 3, 4, 5]
        assert ladder.depth == 2
        ladder.set_depth(4)          # re-ascends 3 and 4 freshly
        assert asserted == [1, 2, 3, 4, 5, 3, 4]
        ladder.close()
        assert ladder.depth == 0
        assert solver.frame_depth == 0

    def test_counts_match_rebuild(self):
        """Ladder probes give the same cell counts as per-probe rebuild."""
        solver, x, bits = self._solver()
        reference = SmtSolver()
        rx = bv_var("hl_rx", 6)
        reference.assert_term(bv_ult(rx, bv_val(50, 6)))
        rbits = reference.ensure_bits(rx)

        def hash_positions(index):
            return [(index * 3 + k) % 6 for k in range(2)]

        ladder = HashLadder(
            solver,
            lambda s, i: s.assert_xor_bits(
                [bits[p] for p in hash_positions(i)], False))
        for index in (2, 4, 1, 3, 2):
            ladder.set_depth(index)
            calls = CallCounter()
            got = saturating_count(solver, [x], 64, Deadline.unlimited(),
                                   calls)
            reference.push()
            for j in range(1, index + 1):
                reference.assert_xor_bits(
                    [rbits[p] for p in hash_positions(j)], False)
            rcalls = CallCounter()
            want = saturating_count(reference, [rx], 64,
                                    Deadline.unlimited(), rcalls)
            reference.pop()
            assert got == want
        ladder.close()

    def test_negative_depth_rejected(self):
        solver, _, _ = self._solver()
        ladder = HashLadder(solver, lambda s, i: None)
        with pytest.raises(CounterError):
            ladder.set_depth(-1)
