"""Substrate micro-benchmarks: the building blocks under pact.

Not a paper table — engineering benchmarks that make substrate
regressions visible (SAT propagation, XOR reasoning, bit-blasting,
simplex, FP circuits).
"""

import random
import time

import pytest

from benchmarks.conftest import emit_json
from repro.sat import CdclDriver
from repro.smt import (
    Equals, SmtSolver, bv_mul, bv_val, bv_var, fp_add, fp_to_bv, fp_var,
)
from repro.smt.theories.lra.delta import DeltaRational
from repro.smt.theories.lra.simplex import Simplex
from fractions import Fraction


def test_sat_random_3sat(benchmark):
    """CDCL on a satisfiable random 3-SAT instance (ratio 3.5)."""
    rng = random.Random(11)
    num_vars, num_clauses = 120, 420

    def solve():
        solver = CdclDriver()
        solver.new_vars(num_vars)
        for _ in range(num_clauses):
            vs = rng.sample(range(1, num_vars + 1), 3)
            solver.add_clause(
                [v if rng.random() < 0.5 else -v for v in vs])
        return solver.solve()

    assert benchmark.pedantic(solve, rounds=3, iterations=1) in (True,
                                                                 False)


def test_xor_system_solving(benchmark):
    """Native GF(2) reasoning: a random 60-variable XOR system."""
    rng = random.Random(13)

    def solve():
        solver = CdclDriver()
        solver.new_vars(60)
        for _ in range(55):
            variables = rng.sample(range(1, 61), rng.randint(3, 12))
            solver.add_xor(variables, rng.random() < 0.5)
        return solver.solve()

    benchmark.pedantic(solve, rounds=3, iterations=1)


def test_bitblast_multiplier(benchmark):
    """Bit-blasting and solving a 12-bit factorisation query."""

    def solve():
        solver = SmtSolver()
        x, y = bv_var("sb_x", 12), bv_var("sb_y", 12)
        solver.assert_term(Equals(bv_mul(x, y), bv_val(3127, 12)))
        solver.assert_term(x.ult(y))
        solver.assert_term(bv_val(1, 12).ult(x))
        return solver.check()

    assert benchmark.pedantic(solve, rounds=1, iterations=1) is True


def test_simplex_chain(benchmark):
    """Exact simplex on a 40-variable ordered chain with bounds."""

    def solve():
        simplex = Simplex()
        variables = [simplex.new_variable() for _ in range(40)]
        for a, b in zip(variables, variables[1:]):
            slack = simplex.define({a: Fraction(1), b: Fraction(-1)})
            simplex.assert_upper(slack, DeltaRational(0, -1), (a, b))
        simplex.assert_lower(variables[0], DeltaRational(0), "lo")
        simplex.assert_upper(variables[-1], DeltaRational(1), "hi")
        feasible, _ = simplex.check()
        return feasible

    assert benchmark.pedantic(solve, rounds=3, iterations=1) is True


def test_fp_adder_circuit(benchmark):
    """FP(3,4) adder: encode + blast + solve one addition relation."""

    def solve():
        solver = SmtSolver()
        a = fp_var("sb_fa", 3, 4)
        b = fp_var("sb_fb", 3, 4)
        solver.assert_term(Equals(fp_to_bv(fp_add(a, b)),
                                  bv_val(0b0_101_000, 7)))
        return solver.check()

    assert benchmark.pedantic(solve, rounds=1, iterations=1) is True


def test_incremental_enumeration(benchmark):
    """The SaturatingCounter hot pattern: 64 models with push/pop."""

    def run():
        solver = SmtSolver()
        x = bv_var("sb_ex", 8)
        solver.assert_term(x.ult(bv_val(64, 8)))
        bits = solver.ensure_bits(x)
        solver.push()
        count = 0
        while solver.check():
            value = solver.bv_value(x)
            solver.add_clause_lits(
                [-bits[i] if (value >> i) & 1 else bits[i]
                 for i in range(8)])
            count += 1
        solver.pop()
        return count

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 64


_timings = {}


@pytest.fixture(autouse=True)
def _record_wall(request):
    """Record each micro-benchmark's wall time for the JSON artifact."""
    start = time.monotonic()
    yield
    _timings[request.node.name] = round(time.monotonic() - start, 4)


def test_substrate_report(results_dir):
    assert _timings, "substrate benches must run first"
    emit_json(results_dir, "substrate",
              {"wall_seconds": dict(sorted(_timings.items()))})
