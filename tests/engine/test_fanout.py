"""The fan-out: per-worker process chains whose counters repeat
exactly, a thread pool that does the serial count's work, a caller's
cancel token that stops a count, and a lost worker that ends it in an
error."""

import multiprocessing
import os
import signal
import threading

import pytest

from repro.api import CountRequest, Problem, Session
from repro.compile import canonical_digest
from repro.core import PactConfig, count_projected, pact_count
from repro.core.pact import PactMethod
from repro.core.search import run_chain
from repro.engine import ExecutionPool, fanout
from repro.engine.fanout import iteration_tasks
from repro.sat.kernel import TELEMETRY
from repro.smt import bv_ult, bv_val, bv_var, printer
from repro.status import Status
from repro.utils.deadline import CooperativeDeadline

# benchmarks/check_solver_calls.py's xor smoke formula and parameters.
WIDTH = 10
BOUND = (1 << WIDTH) - (1 << (WIDTH - 3))
SEED = 9
ITERATIONS = 3


def _kernel_delta(before: dict, prefix: str) -> dict:
    after = TELEMETRY.snapshot()
    return {key: after[key] - before.get(key, 0) for key in after
            if key.startswith(prefix)}


def _smoke_count(pool=None):
    """(solver_calls, estimates, pact.* kernel-counter deltas)."""
    x = bv_var("fan_repeat", WIDTH)
    config = PactConfig(family="xor", seed=SEED,
                        iteration_override=ITERATIONS)
    before = TELEMETRY.snapshot()
    result = pact_count([bv_ult(x, bv_val(BOUND, WIDTH))], [x], config,
                        pool=pool)
    kernel = _kernel_delta(before, "pact.")
    assert result.solved and not result.exact
    return result.solver_calls, result.estimates, kernel


def test_fanned_out_counters_repeat_on_every_backend():
    """Process chains are a pure function of (problem, parameters,
    jobs): one problem counted twice in one process gives the same
    solver calls and kernel counters, and the serial run's estimates.
    A thread pool does not split the count: it repeats the serial run
    exactly."""
    serial = _smoke_count()
    runs = [_smoke_count(ExecutionPool(2, "process")) for _ in range(2)]
    calls, estimates, kernel = runs[0]
    assert kernel["pact.solves"] == calls
    assert runs[1] == runs[0]
    assert estimates == serial[1]
    assert _smoke_count(ExecutionPool(2, "thread")) == serial


@pytest.mark.parametrize("counter, width, iterations", [
    ("pact:xor", WIDTH, ITERATIONS),
    ("pact:prime", 8, ITERATIONS),
    ("pact:shift", WIDTH, ITERATIONS),
    ("cdm", 6, 2),
])
def test_a_thread_pool_count_does_the_serial_work(counter, width,
                                                  iterations):
    """Threads cannot run two chains at once, so a thread pool runs a
    count's iterations as the serial chain on the counter's own solver:
    the serial estimates, oracle calls and kernel counters, and no task
    reaches the pool."""
    x = bv_var(f"fan_thread_{counter}", width)
    problem = Problem.from_terms(
        [bv_ult(x, bv_val((1 << width) - (1 << (width - 3)), width))],
        [x], name="fan_thread")
    request = CountRequest(counter=counter, seed=SEED,
                           iteration_override=iterations)
    prefix = counter.split(":")[0] + "."
    outcomes = []
    for session in (Session(), Session(jobs=2, backend="thread")):
        before = TELEMETRY.snapshot()
        response = session.count(problem, request)
        outcomes.append((response.estimates, response.estimate,
                         response.solver_calls,
                         _kernel_delta(before, prefix)))
        assert response.status is Status.OK and not response.exact
        assert session.pool.worker_times == {}
    assert outcomes[1] == outcomes[0]


def test_a_fanned_out_count_cut_short_reports_its_work():
    """Like the serial loop, a chain that runs out of time keeps the
    iterations it finished and the oracle calls it made: the count's
    ``solver_calls`` match the kernel's solves, less at most the one
    solve per chain that the deadline interrupted."""
    x = bv_var("fan_cut", 14)
    formula = [bv_ult(x, bv_val(9000, 14))], [x]
    serial = count_projected(*formula, seed=SEED, iteration_override=40)
    before = TELEMETRY.snapshot().get("pact.solves", 0)
    cut = count_projected(*formula, seed=SEED, iteration_override=40,
                          timeout=serial.time_seconds / 4,
                          pool=ExecutionPool(2, "process"))
    solves = TELEMETRY.snapshot()["pact.solves"] - before
    assert cut.status is Status.TIMEOUT
    assert cut.iterations == len(cut.estimates) < 40
    assert 0 <= solves - cut.solver_calls <= 2


@pytest.mark.parametrize("counter", ["pact:xor", "cdm"])
def test_cancel_token_reaches_fanned_out_iterations(counter, monkeypatch):
    """A count under a caller's CooperativeDeadline (the serve drain,
    or any Session.count(..., deadline=...)) on a thread pool stops
    when its token is set after the exact-count probe, as the
    iterations start — whatever the speed of the machine."""
    width = WIDTH if counter == "pact:xor" else 5
    x = bv_var(f"fan_cancel_{counter}", width)
    problem = Problem.from_terms(
        [bv_ult(x, bv_val((1 << width) - 3, width))], [x],
        name="fan_cancel")
    token = threading.Event()

    def cancel_then_run(*args):
        token.set()
        return run_chain(*args)

    monkeypatch.setattr("repro.core.search.run_chain", cancel_then_run)
    session = Session(jobs=2, backend="thread")
    response = session.count(
        problem, CountRequest(counter=counter, seed=SEED),
        deadline=CooperativeDeadline(None, token))
    assert token.is_set()
    assert response.status is Status.TIMEOUT
    assert response.estimate is None


_CHAIN_TASK = fanout._chain_task


def _chain_one_dies(method, problem, indices, budget=None):
    """A chain body whose chain-1 worker process kills itself."""
    if indices[0] == 1 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _CHAIN_TASK(method, problem, indices, budget=budget)


def test_a_lost_fanout_worker_ends_the_count_in_error(monkeypatch):
    """A worker process that dies mid-count ends the count in
    Status.ERROR naming the lost worker, never in a traceback or in a
    median over the chains that survived; the session's next count
    runs on a fresh executor and succeeds."""
    x = bv_var("fan_lost", WIDTH)
    problem = Problem.from_terms([bv_ult(x, bv_val(BOUND, WIDTH))], [x],
                                 name="fan_lost")
    request = CountRequest(counter="pact:xor", seed=SEED,
                           iteration_override=ITERATIONS)
    session = Session(jobs=2, backend="process")
    with monkeypatch.context() as patch:
        # Tasks carry their body by reference to this module.
        patch.setattr(fanout, "_chain_task", _chain_one_dies)
        lost = session.count(problem, request)
    assert lost.status is Status.ERROR
    assert lost.estimate is None
    assert "process-lost" in lost.detail
    again = session.count(problem, request)
    assert again.status is Status.OK
    assert again.estimates == Session().count(problem, request).estimates


@pytest.mark.parametrize("jobs, iterations, chains", [
    (2, 5, [(0, 2, 4), (1, 3)]),
    (4, 3, [(0,), (1,), (2,)]),
    (1, 3, [(0, 1, 2)]),
])
def test_iterations_split_into_one_chain_per_worker(jobs, iterations,
                                                    chains):
    """``min(jobs, numIt)`` chains; chain w runs iterations w, w + jobs,
    ... in order — a split fixed by ``jobs`` alone."""
    x = bv_var("fan_split", 8)
    assertions, projection = [bv_ult(x, bv_val(200, 8))], [x]
    tasks = iteration_tasks(
        PactMethod(PactConfig(seed=SEED)), assertions, projection,
        digest=canonical_digest(assertions, projection),
        iterations=iterations, jobs=jobs)
    assert [task.key for task in tasks] == list(range(len(chains)))
    assert [task.args[2] for task in tasks] == chains


def test_a_fanned_out_count_prints_its_formula_once(monkeypatch):
    """A counter given its compile key hands it to the chains' problem,
    so pickling that problem prints the formula only for its script:
    ``write_script`` runs once in the parent process, however many
    chains carry the problem."""
    x = bv_var("fan_print", WIDTH)
    assertions, projection = [bv_ult(x, bv_val(BOUND, WIDTH))], [x]
    key = canonical_digest(assertions, projection)
    printed = []
    write_script = printer.write_script

    def counting_write_script(*args, **kwargs):
        printed.append(args)
        return write_script(*args, **kwargs)

    # Problem.script calls the name it imported; canonical_digest looks
    # it up in the printer module at call time.
    monkeypatch.setattr(printer, "write_script", counting_write_script)
    monkeypatch.setattr("repro.api.problem.write_script",
                        counting_write_script)
    result = pact_count(assertions, projection,
                        PactConfig(seed=SEED, iteration_override=ITERATIONS),
                        digest=key, pool=ExecutionPool(2, "process"))
    assert result.solved and not result.exact
    assert len(printed) == 1


def test_process_chains_run_under_a_cooperative_deadline():
    """A cancel token cannot cross a process boundary: a process-backend
    count under a CooperativeDeadline runs its chains bounded by the
    time left alone, and gives the serial estimate."""
    x = bv_var("fan_process_token", WIDTH)
    problem = Problem.from_terms([bv_ult(x, bv_val(BOUND, WIDTH))], [x],
                                 name="fan_process_token")
    request = CountRequest(counter="pact:xor", seed=SEED,
                           iteration_override=ITERATIONS)
    serial = Session().count(problem, request)
    response = Session(pool=ExecutionPool(2, "process")).count(
        problem, request,
        deadline=CooperativeDeadline(None, threading.Event()))
    assert response.status is Status.OK
    assert response.estimate == serial.estimate
