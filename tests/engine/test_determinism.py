"""The engine's determinism contract: parallel runs are bit-identical to
serial runs for the same seed (satellite of the paper's (eps, delta)
guarantee — the median is only meaningful if the iterations it is taken
over do not depend on scheduling).

Process workers run per-worker chains on cloned solvers and must
reproduce the serial per-iteration estimates exactly, for all three pact
hash families and for CDM.  (A thread pool runs the serial chain itself;
``tests/engine/test_fanout.py`` checks that it does the serial work.)
"""

import pytest

from repro import cdm_count, count_projected, exact_count
from repro.api import Problem
from repro.core import PactConfig
from repro.core.pact import PactMethod
from repro.engine import ExecutionPool
from repro.engine.fanout import _chain_task
from repro.sat.kernel import TELEMETRY
from repro.smt import bv_ult, bv_val, bv_var

ITERATIONS = 4
SEED = 11


def _formula(name):
    x = bv_var(name, 8)
    return [bv_ult(x, bv_val(200, 8))], [x]


@pytest.mark.parametrize("family", ["xor", "prime", "shift"])
def test_pact_parallel_matches_serial(family):
    assertions, projection = _formula(f"det_{family}_process")
    serial = count_projected(assertions, projection, family=family,
                             seed=SEED, iteration_override=ITERATIONS)
    parallel = count_projected(assertions, projection, family=family,
                               seed=SEED, iteration_override=ITERATIONS,
                               pool=ExecutionPool(2, "process"))
    assert serial.estimates == parallel.estimates
    assert serial.estimate == parallel.estimate
    assert parallel.iterations == ITERATIONS


# cdm's q-fold composition makes this the suite's slowest property
# test; it runs in the slow CI job, not tier-1.
@pytest.mark.slow
def test_cdm_parallel_matches_serial():
    # CDM self-composes the formula q times, so keep the space small.
    x = bv_var("det_cdm", 7)
    assertions, projection = [bv_ult(x, bv_val(90, 7))], [x]
    serial = cdm_count(assertions, projection, seed=SEED,
                       iteration_override=2)
    parallel = cdm_count(assertions, projection, seed=SEED,
                         iteration_override=2,
                         pool=ExecutionPool(2, "process"))
    assert serial.estimates == parallel.estimates
    assert serial.estimate == parallel.estimate


@pytest.mark.parametrize("family", ["xor", "prime", "shift"])
def test_a_one_iteration_chain_is_pure(family):
    """A chain task of one iteration returns the same estimate and
    oracle calls on repeated calls, and the estimate of the
    corresponding serial iteration."""
    assertions, projection = _formula(f"det_pure_{family}")
    method = PactMethod(PactConfig(family=family, seed=SEED))
    problem = Problem.from_terms(assertions, projection)
    serial = count_projected(assertions, projection, family=family,
                             seed=SEED, iteration_override=ITERATIONS)
    for index in (0, ITERATIONS - 1):
        first = _chain_task(method, problem, (index,))
        assert first == _chain_task(method, problem, (index,))
        assert first["estimates"] == [serial.estimates[index]]


def test_exact_short_circuit_ignores_pool():
    """Small spaces are counted exactly before any fan-out happens."""
    x = bv_var("det_small", 6)
    result = count_projected([bv_ult(x, bv_val(9, 6))], [x],
                             pool=ExecutionPool(2, "thread"))
    assert result.exact
    assert result.estimate == 9


def _solves(prefix):
    return TELEMETRY.snapshot().get(f"{prefix}.solves", 0)


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_every_solver_call_reaches_telemetry(backend):
    """Fanned-out iterations fold their worker solver's counters into
    the kernel telemetry, so ``pact count --jobs N --stats`` reports
    every solve on every backend — one per oracle call, as serially.
    The enumeration counter (no pool) reports its solves too."""
    pool = ExecutionPool(2, backend)
    assertions, projection = _formula(f"tel_pact_{backend}")
    before = _solves("pact")
    pact = count_projected(assertions, projection, seed=SEED,
                           iteration_override=3, pool=pool)
    assert pact.iterations == 3 and not pact.exact
    assert _solves("pact") - before == pact.solver_calls

    x = bv_var(f"tel_cdm_{backend}", 5)
    before = _solves("cdm")
    cdm = cdm_count([bv_ult(x, bv_val(20, 5))], [x], seed=SEED,
                    iteration_override=2, pool=pool)
    assert cdm.iterations == 2 and not cdm.exact
    assert _solves("cdm") - before == cdm.solver_calls
    # CDM's fanned-out chains run the serial loop's method: the serial
    # count's estimates on every backend.
    serial = cdm_count([bv_ult(x, bv_val(20, 5))], [x], seed=SEED,
                       iteration_override=2)
    assert cdm.estimates == serial.estimates

    x = bv_var(f"tel_enum_{backend}", 5)
    before = _solves("enum")
    enum = exact_count([bv_ult(x, bv_val(20, 5))], [x])
    assert enum.exact and enum.estimate == 20
    assert _solves("enum") - before == enum.solver_calls
