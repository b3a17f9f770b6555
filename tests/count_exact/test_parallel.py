"""Component-parallel exact counting: bit-identity against the serial
search, cube-and-conquer splitting, stats/telemetry transport across
the process boundary, the thread pool's serial work, and
deadline/interrupt/lost-worker surfacing."""

import multiprocessing
import os
import random
import signal
import sqlite3
import time

import pytest

import repro.count_exact.parallel as parallel_module
from repro.api import CountRequest, Problem, Session, resolve
from repro.count_exact.counter import CcStats, count_snapshot
from repro.count_exact.parallel import (
    ComponentSpec, _cube_width, count_component_task,
)
from repro.engine.pool import ExecutionPool
from repro.errors import SolverTimeoutError
from repro.sat.kernel import TELEMETRY, ClauseDB, ComponentDriver, SatSnapshot
from repro.smt import bv_ult, bv_val, bv_var
from repro.status import Status
from repro.utils.deadline import Deadline


def random_snapshot(seed, num_vars=15, num_clauses=18, num_xors=2):
    """A satisfiable-leaning random CNF+XOR snapshot with several
    top-level components (width-2/3 clauses, low density)."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(2, 3)
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(var if rng.random() < 0.5 else -var
                             for var in chosen))
    xors = []
    for _ in range(num_xors):
        width = rng.randint(2, 4)
        xors.append((tuple(sorted(rng.sample(range(1, num_vars + 1),
                                             width))),
                     bool(rng.getrandbits(1))))
    return SatSnapshot(num_vars, tuple(clauses), (), tuple(xors), ok=True)


PROJECTION = frozenset(range(1, 12))


@pytest.fixture
def split_at_4(monkeypatch):
    """Cube-split every component wider than 4 projection bits (the
    parent reads the constant when it builds the specs)."""
    monkeypatch.setattr(parallel_module, "SPLIT_SUPPORT", 4)


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_process_backend_matches_serial(self, seed, split_at_4):
        snapshot = random_snapshot(seed)
        serial = count_snapshot(snapshot, PROJECTION)
        pool = ExecutionPool(jobs=2, backend="process")
        parallel = count_snapshot(snapshot, PROJECTION, pool=pool)
        assert serial.status is parallel.status is Status.OK
        assert serial.estimate == parallel.estimate

    def test_forced_cube_split_matches_serial(self, monkeypatch):
        """A split threshold of 0 cube-splits every component with
        projected support, so the cubes-sum-to-component invariant is
        on the critical path."""
        monkeypatch.setattr(parallel_module, "SPLIT_SUPPORT", 0)
        snapshot = random_snapshot(11)
        serial = count_snapshot(snapshot, PROJECTION)
        stats = CcStats()
        pool = ExecutionPool(jobs=4, backend="process")
        parallel = count_snapshot(snapshot, PROJECTION, pool=pool,
                                  stats=stats)
        assert parallel.estimate == serial.estimate
        assert stats.dispatched >= 4  # at least one component, 4 cubes

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_thread_backend_matches_serial(self, seed, jobs, split_at_4):
        """Only processes run Python at the same time, so a thread pool
        of any width splits nothing: the count is the serial count,
        stats and all."""
        snapshot = random_snapshot(seed)
        serial_stats = CcStats()
        serial = count_snapshot(snapshot, PROJECTION, stats=serial_stats)
        thread_stats = CcStats()
        pool = ExecutionPool(jobs=jobs, backend="thread")
        threaded = count_snapshot(snapshot, PROJECTION, pool=pool,
                                  stats=thread_stats)
        assert serial.status is threaded.status is Status.OK
        assert thread_stats.dispatched == 0
        assert threaded.estimate == serial.estimate
        assert thread_stats.as_dict() == serial_stats.as_dict()
        assert pool.worker_times == {}

    def test_cube_specs_sum_to_whole_component(self):
        """Counting each cube of a spec independently sums to the
        unsplit spec's count — the identity the parent relies on."""
        clauses = ((1, 2, -3), (-1, 4), (2, 3, 4), (-2, -4))
        base = dict(num_vars=4, clauses=clauses, xors=(),
                    projection=(1, 2, 3, 4))
        whole = count_component_task(ComponentSpec(units=(), **base))
        split = [count_component_task(
                     ComponentSpec(units=(1 if bit else -1,), **base))
                 for bit in (0, 1)]
        assert whole["count"] == sum(part["count"] for part in split)


# ----------------------------------------------------------------------
# stats and telemetry transport
# ----------------------------------------------------------------------
class TestStatsTransport:
    def test_worker_stats_fold_into_parent(self, split_at_4):
        snapshot = random_snapshot(3)
        pool_stats = CcStats()
        pool = ExecutionPool(jobs=2, backend="process")
        count_snapshot(snapshot, PROJECTION, pool=pool, stats=pool_stats)
        assert pool_stats.dispatched > 0
        # the workers' search work is visible in the parent totals
        assert pool_stats.decisions > 0
        assert pool_stats.components > 0

    def test_process_stats_repeat_exactly(self, split_at_4):
        """Every worker runs a fixed search on a fixed spec, so two
        process-pool counts agree counter for counter."""
        snapshot = random_snapshot(5)
        totals = []
        for _ in range(2):
            stats = CcStats()
            pool = ExecutionPool(jobs=2, backend="process")
            result = count_snapshot(snapshot, PROJECTION, pool=pool,
                                    stats=stats)
            totals.append((result.estimate, stats.as_dict()))
        assert totals[0][1]["dispatched"] > 0
        assert totals[0] == totals[1]

    def test_telemetry_survives_the_process_boundary(self):
        """The pool ships each worker's kernel-telemetry delta home, so
        ``pact count --stats`` shows the workers' decisions: the parent
        itself decides nothing on a dispatched count."""
        snapshot = random_snapshot(7)
        stats = CcStats()
        before = TELEMETRY.snapshot().get("cc.decisions", 0)
        pool = ExecutionPool(jobs=2, backend="process")
        count_snapshot(snapshot, PROJECTION, pool=pool, stats=stats)
        delta = TELEMETRY.snapshot().get("cc.decisions", 0) - before
        assert stats.dispatched > 0
        assert delta == stats.decisions > 0


# ----------------------------------------------------------------------
# deadline and interrupt surfacing
# ----------------------------------------------------------------------
class _ExpiringDeadline(Deadline):
    """Unlimited for the first ``allowance`` polls, expired after —
    a deterministic mid-recursion timeout."""

    def __init__(self, allowance: int):
        super().__init__(None)
        self.allowance = allowance

    def check(self):
        self.allowance -= 1
        if self.allowance < 0:
            raise SolverTimeoutError("deadline exceeded")


class TestDeadlines:
    def test_mid_recursion_deadline_surfaces_partial_stats(self, monkeypatch):
        """A deadline expiring deep in the search yields TIMEOUT with
        the partial stats in detail — never a silently short count."""
        from repro.count_exact import counter as counter_module
        monkeypatch.setattr(counter_module, "_DEADLINE_CHECK_INTERVAL", 4)
        snapshot = random_snapshot(1, num_vars=18, num_clauses=24)
        result = count_snapshot(snapshot, frozenset(range(1, 15)),
                                presolve=False,
                                deadline=_ExpiringDeadline(3))
        assert result.status is Status.TIMEOUT
        assert result.estimate is None
        assert result.detail.startswith("cc: decisions=")
        assert result.solver_calls > 0  # partial work is on record

    def test_a_deadline_mid_search_unwinds_every_decision(self,
                                                          monkeypatch):
        """The search loop closes its open steps when one raises, so
        every decision is unwound by the time the timeout leaves
        ``count_scope``."""
        from repro.count_exact import counter as counter_module
        monkeypatch.setattr(counter_module, "_DEADLINE_CHECK_INTERVAL", 3)
        num_vars = 60
        driver = ComponentDriver(ClauseDB(
            num_vars, [(var, var + 1) for var in range(1, num_vars)], ()))
        search = counter_module._Search(
            driver, frozenset(range(1, num_vars + 1)),
            _ExpiringDeadline(7), CcStats())
        assert search.assert_roots([])
        root = len(driver.trail)
        # ``raised`` keeps the traceback, and with it the loop's frame
        # and its suspended steps, alive: only the loop itself can have
        # closed them.
        with pytest.raises(SolverTimeoutError) as raised:
            search.count_scope(range(1, num_vars + 1))
        assert "deadline exceeded" in str(raised.value)
        assert search.stats.decisions > 3
        assert len(driver.trail) == root

    def test_worker_timeout_never_returns_partial_product(self, monkeypatch,
                                                          split_at_4):
        """When any dispatched subproblem times out the parent raises
        (surfacing TIMEOUT), instead of multiplying the components that
        did finish."""
        monkeypatch.setattr(parallel_module, "_deadline_at",
                            lambda deadline: time.monotonic() - 1.0)
        snapshot = random_snapshot(2)
        pool = ExecutionPool(jobs=2, backend="process")
        result = count_snapshot(snapshot, PROJECTION, pool=pool)
        assert result.status is Status.TIMEOUT
        assert result.estimate is None

    def test_keyboard_interrupt_propagates(self, monkeypatch, tmp_path):
        """A KeyboardInterrupt mid-search reaches the caller, as it does
        from every other counter, and the component store is closed on
        the way out."""
        from repro.count_exact import counter as counter_module
        from repro.serve.store import SqliteStore
        monkeypatch.setattr(counter_module._Search, "count_scope",
                            _interrupt)
        closed = []
        close = SqliteStore.close
        monkeypatch.setattr(SqliteStore, "close",
                            lambda store: closed.append(store) or close(store))
        with pytest.raises(KeyboardInterrupt):
            count_snapshot(random_snapshot(0), PROJECTION,
                           component_store=str(tmp_path / "cc.sqlite"))
        assert closed

    def test_an_interrupted_count_stores_no_result(self, monkeypatch,
                                                   tmp_path):
        """An interrupted exact:cc count under a session store raises and
        leaves no ``entries`` row, so the next count computes afresh
        instead of serving a cached timeout."""
        from repro.count_exact import counter as counter_module
        x = bv_var("cc_interrupted", 10)
        problem = Problem.from_terms([bv_ult(x, bv_val(896, 10))], [x],
                                     name="cc_interrupted")
        request = CountRequest(counter="exact:cc")
        with monkeypatch.context() as patch:
            patch.setattr(counter_module._Search, "count_scope",
                          _interrupt)
            with pytest.raises(KeyboardInterrupt):
                Session(cache_dir=tmp_path).count(problem, request)
        with sqlite3.connect(tmp_path / "pact-cache.sqlite") as connection:
            assert connection.execute(
                "SELECT COUNT(*) FROM entries").fetchone() == (0,)
        again = Session(cache_dir=tmp_path).count(problem, request)
        assert again.estimate == 896
        assert not again.cached


def _interrupt(search, scope):
    """A ``_Search.count_scope`` that is interrupted at once."""
    raise KeyboardInterrupt()


_COMPONENT_TASK = parallel_module.count_component_task


def _component_worker_dies(spec, budget=None):
    """A component worker that is SIGKILLed before it counts (only in a
    pool's child process; the parent would kill the test run)."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _COMPONENT_TASK(spec, budget=budget)


def test_a_lost_component_worker_ends_the_count_in_error(monkeypatch,
                                                         tmp_path):
    """A component worker process that dies mid-count ends the count in
    Status.ERROR naming the lost worker, never in a traceback or a
    partial product; the component store is closed on the way out, and
    the session's next count succeeds."""
    from repro.serve.store import SqliteStore
    x = bv_var("cc_lost", 10)
    problem = Problem.from_terms([bv_ult(x, bv_val(896, 10))], [x],
                                 name="cc_lost")
    request = CountRequest(counter="exact:cc",
                           component_store=str(tmp_path / "cc.sqlite"))
    session = Session(jobs=2, backend="process")
    closed = []
    close = SqliteStore.close
    with monkeypatch.context() as patch:
        # Tasks carry their body by reference to this module.
        patch.setattr(parallel_module, "count_component_task",
                      _component_worker_dies)
        patch.setattr(SqliteStore, "close",
                      lambda store: closed.append(store) or close(store))
        lost = session.count(problem, request)
    assert lost.status is Status.ERROR
    assert lost.estimate is None
    assert "process-lost worker counting component 0" in lost.detail
    assert closed
    assert session.count(problem, request).estimate == 896


# ----------------------------------------------------------------------
# cube geometry
# ----------------------------------------------------------------------
class TestCubeWidth:
    def test_tracks_job_count(self):
        assert _cube_width(1) == 1   # 2 cubes: minimum useful split
        assert _cube_width(2) == 1
        assert _cube_width(4) == 2
        assert _cube_width(8) == 3
        assert _cube_width(16) == 4

    def test_is_capped(self):
        assert _cube_width(1024) == 4


# ----------------------------------------------------------------------
# API threading
# ----------------------------------------------------------------------
class TestApiThreading:
    def test_component_store_keys_the_fingerprint_only_when_set(self):
        default = CountRequest(counter="exact:cc").cache_params()
        assert "component_store" not in default
        keyed = CountRequest(counter="exact:cc",
                             component_store="/tmp/cc.sqlite").cache_params()
        assert keyed["component_store"] == "/tmp/cc.sqlite"

    def test_registry_forwards_pool_and_store(self, tmp_path):
        x = bv_var("cc_par_reg", 10)
        problem = Problem.from_terms([bv_ult(x, bv_val(700, 10))], [x],
                                     name="cc_par_reg")
        store_path = tmp_path / "cc.sqlite"
        request = CountRequest(counter="exact:cc",
                               component_store=str(store_path))
        pool = ExecutionPool(jobs=2, backend="process")
        response = resolve("exact:cc").count(problem, request, pool=pool)
        assert response.estimate == 700
        assert response.exact
        assert "dispatched=1" in response.detail
        assert store_path.exists()

    def test_registry_with_a_thread_pool_counts_serially(self):
        """A thread pool reaches ``count_snapshot`` through the registry
        and splits nothing: the answer and its ``cc:`` detail are the
        serial count's."""
        x = bv_var("cc_thread_reg", 10)
        problem = Problem.from_terms([bv_ult(x, bv_val(700, 10))], [x],
                                     name="cc_thread_reg")
        request = CountRequest(counter="exact:cc")
        counter = resolve("exact:cc")
        serial = counter.count(problem, request)
        pool = ExecutionPool(jobs=2, backend="thread")
        threaded = counter.count(problem, request, pool=pool)
        assert threaded.estimate == serial.estimate == 700
        assert threaded.exact
        assert "dispatched" not in threaded.detail
        assert threaded.detail == serial.detail
