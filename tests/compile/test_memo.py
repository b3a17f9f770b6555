"""The per-process compile memo: compilation runs exactly once per
(problem, params) per process — serially, under a thread race, under
Session thread fan-out, and per worker under the process backend."""

import threading

import pytest

from repro.api import CountRequest, Problem, Session
from repro.compile import compile_counters, compiled_for, reset_compile_memo
from repro.core import PactConfig
from repro.core.pact import PactMethod
from repro.engine.fanout import _chain_task
from repro.engine.pool import ExecutionPool
from repro.smt.terms import bv_ult, bv_val, bv_var


@pytest.fixture(autouse=True)
def _fresh_memo():
    reset_compile_memo()
    yield
    reset_compile_memo()


def _formula(name, width=8, bound=200):
    x = bv_var(name, width)
    return [bv_ult(x, bv_val(bound, width))], [x]


class TestExactlyOnce:
    def test_repeated_calls_build_once(self):
        assertions, projection = _formula("memo_a")
        for _ in range(5):
            compiled_for(assertions, projection, digest="d1")
        counters = compile_counters()
        assert counters["builds"] == 1
        assert counters["per_key"] == {("d1", "pact"): 1}

    def test_distinct_params_build_separately(self):
        assertions, projection = _formula("memo_b")
        compiled_for(assertions, projection, digest="d1")
        compiled_for(assertions, projection, digest="d1", kind="cdm",
                     extra=(2,))
        compiled_for(assertions, projection, digest="d1", kind="cdm",
                     extra=(3,))
        assert compile_counters()["builds"] == 3

    def test_thread_race_builds_once(self):
        assertions, projection = _formula("memo_c", width=10)
        barrier = threading.Barrier(8)
        results = []

        def racer():
            barrier.wait()
            results.append(compiled_for(assertions, projection,
                                        digest="race"))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert compile_counters()["builds"] == 1
        assert all(artifact is results[0] for artifact in results)


class TestBoundedSideTables:
    def test_eviction_drops_the_build_count(self, monkeypatch):
        from repro.compile import memo
        assertions, projection = _formula("memo_cap")
        monkeypatch.setattr(memo, "_MEMO_CAP", 4)
        for index in range(10):
            compiled_for(assertions, projection, digest=f"cap{index}")
        counters = compile_counters()
        assert counters["builds"] == 10
        assert counters["entries"] == 4
        assert set(counters["per_key"]) == {
            (f"cap{index}", "pact") for index in range(6, 10)}

    def test_failed_compile_releases_its_key_lock(self, monkeypatch):
        from repro.compile import memo

        def refuse(*args, **kwargs):
            raise ValueError("unsupported")

        monkeypatch.setattr(memo, "compile_problem", refuse)
        assertions, projection = _formula("memo_fail")
        for index in range(5):
            with pytest.raises(ValueError):
                compiled_for(assertions, projection, digest=f"bad{index}")
        assert memo._key_locks == {}
        assert compile_counters()["builds"] == 0


class TestFanOutExactlyOnce:
    def test_thread_pool_session_count_compiles_once(self):
        """A thread-pool ``Session.count`` runs every iteration on the
        one solver built from the memo's artifact: the problem compiles
        exactly once."""
        assertions, projection = _formula("memo_fan", width=12, bound=3000)
        problem = Problem.from_terms(assertions, projection)
        with Session(jobs=4, backend="thread") as session:
            response = session.count(
                problem, CountRequest(counter="pact:xor", seed=3,
                                      iteration_override=6))
        assert response.solved
        counters = compile_counters()
        pact_keys = {key: count for key, count in
                     counters["per_key"].items() if key[1] == "pact"}
        assert len(pact_keys) == 1
        assert set(pact_keys.values()) == {1}

    def test_process_workers_compile_once_each(self):
        # Each worker runs several chains of the same problem; its
        # process-local memo must record at most one build for the key.
        assertions, projection = _formula("memo_proc", width=12,
                                          bound=3000)
        args = (PactMethod(PactConfig(family="xor", seed=3)),
                Problem.from_terms(assertions, projection))
        pool = ExecutionPool(jobs=2, backend="process")
        results = pool.map(_chains_then_builds, [args] * 4, budget=120)
        assert all(result.ok for result in results)
        for result in results:
            estimates, builds = result.value
            assert len(estimates) == 2
            assert builds <= 1  # 0 when forked with a pre-seeded memo


def _chains_then_builds(method, problem, budget=None):
    """Worker body: run two one-iteration chains, report this
    process's builds."""
    estimates = [_chain_task(method, problem, (index,),
                             budget=budget)["estimates"][0]
                 for index in range(2)]
    per_key = compile_counters()["per_key"]
    builds = sum(count for key, count in per_key.items()
                 if key[0] == problem.compile_key)
    return estimates, builds
