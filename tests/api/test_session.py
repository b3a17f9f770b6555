"""Session: the three verbs, cache observation, backend determinism."""

import json
import sqlite3

import pytest

from repro.api import CountRequest, Problem, Session
from repro.engine.pool import ExecutionPool
from repro.serve.store import SqliteStore
from repro.smt.terms import bv_ult, bv_val, bv_var
from repro.status import Status

SEED = 11


def _problem(name, width=8, bound=200):
    x = bv_var(name, width)
    return Problem.from_terms([bv_ult(x, bv_val(bound, width))], [x],
                              name=name)


def _request(**overrides):
    defaults = dict(counter="pact:xor", seed=SEED, iteration_override=3)
    defaults.update(overrides)
    return CountRequest(**defaults)


def _rows(directory, sql, parameters=()):
    """Run ``sql`` on the store ``Session(cache_dir=directory)`` opens."""
    with sqlite3.connect(directory / "pact-cache.sqlite") as connection:
        return connection.execute(sql, parameters).fetchall()


class TestCount:
    def test_count_matches_legacy(self):
        from repro import count_projected
        problem = _problem("ss_count")
        response = Session().count(problem, _request())
        legacy = count_projected(list(problem.assertions),
                                 list(problem.projection), seed=SEED,
                                 iteration_override=3, family="xor")
        assert response.estimate == legacy.estimate
        assert response.estimates == legacy.estimates

    def test_overrides_apply(self):
        response = Session().count(_problem("ss_override"), _request(),
                                   counter="enum")
        assert response.counter == "enum"
        assert response.exact

    def test_unknown_counter_raises_before_running(self):
        from repro.errors import CounterError
        with pytest.raises(CounterError) as excinfo:
            Session().count(_problem("ss_bad"), _request(),
                            counter="pact:md5")
        assert "pact:md5" in str(excinfo.value)

    def test_counter_failure_becomes_response(self):
        """Failures *inside* a counter surface as error responses."""
        x = bv_var("ss_bool", 1)
        from repro.smt.terms import bool_var
        problem = Problem(assertions=(bv_ult(x, bv_val(1, 1)),),
                          projection=(bool_var("ss_not_bv"),),
                          name="ss_badproj")
        response = Session().count(problem, _request())
        assert response.status is Status.ERROR
        assert "bit-vector" in response.detail

    def test_progress_events(self):
        events = []
        Session().count(_problem("ss_events"), _request(),
                        progress=events.append)
        assert [event.kind for event in events] == ["completed"]
        assert events[0].counter == "pact:xor"


class TestCache:
    def test_hit_observed_through_response(self, tmp_path):
        problem = _problem("ss_cache")
        with Session(cache_dir=tmp_path) as session:
            first = session.count(problem, _request())
            second = session.count(problem, _request())
        assert not first.cached
        assert second.cached
        assert second.worker == "cache"
        assert second.estimate == first.estimate
        assert session.cache.stats["hits"] == 1

    def test_hit_survives_new_session(self, tmp_path):
        problem = _problem("ss_cache2")
        with Session(cache_dir=tmp_path) as session:
            session.count(problem, _request())
        with Session(cache_dir=tmp_path) as session:
            again = session.count(problem, _request())
        assert again.cached

    def test_different_counter_misses(self, tmp_path):
        problem = _problem("ss_cache3")
        with Session(cache_dir=tmp_path) as session:
            session.count(problem, _request())
            other = session.count(problem, _request(counter="pact:prime"))
        assert not other.cached

    def test_old_format_cache_entry_loads(self, tmp_path):
        """Entries written before the API layer (plain string status, no
        counter/iterations keys) still serve hits."""
        problem = _problem("ss_legacy")
        request = _request()
        fingerprint = problem.fingerprint(
            request.cache_params("pact:xor"))
        SqliteStore(tmp_path / "pact-cache.sqlite").close()
        _rows(tmp_path, "INSERT INTO entries VALUES (?, ?, 1.0, 1.0)",
              (fingerprint, json.dumps({
                  "estimate": 137, "status": "ok",
                  "time_seconds": 1.5, "solver_calls": 12})))
        response = Session(cache_dir=tmp_path).count(problem, request)
        assert response.cached
        assert response.estimate == 137
        assert response.status is Status.OK

    def test_cache_file_status_is_plain_string(self, tmp_path):
        """New entries keep the old on-disk vocabulary."""
        with Session(cache_dir=tmp_path) as session:
            session.count(_problem("ss_disk"), _request())
        statuses = [json.loads(payload)["status"] for (payload,)
                    in _rows(tmp_path, "SELECT payload FROM entries")]
        assert statuses == ["ok"]

    def test_concurrent_thread_writers_share_the_store(self, tmp_path):
        """The serving layer's worker threads call ``count`` on one
        shared session concurrently: the store's one locked connection
        must keep every row whole, and every response must be
        correct."""
        from concurrent.futures import ThreadPoolExecutor

        problems = [_problem(f"ss_thread_{n}", bound=50 + n)
                    for n in range(6)]
        baseline = {problem.name:
                    Session().count(problem, _request()).estimate
                    for problem in problems}
        with Session(cache_dir=tmp_path) as session:
            with ThreadPoolExecutor(max_workers=8) as executor:
                # Each problem counted twice, interleaved across
                # threads: writes and lookups race on the same rows.
                responses = list(executor.map(
                    lambda problem: session.count(problem, _request()),
                    problems * 2))
        assert all(response.solved for response in responses)
        for response in responses:
            assert response.estimate == baseline[response.problem]
        # Every stored result is a JSON object (no torn concurrent
        # writes) under its problem's fingerprint.
        fingerprints = {
            problem.fingerprint(_request().cache_params("pact:xor"))
            for problem in problems}
        rows = _rows(tmp_path, "SELECT fingerprint, payload FROM entries")
        assert {fingerprint for fingerprint, _ in rows} == fingerprints
        for _, payload in rows:
            assert isinstance(json.loads(payload), dict)


class TestBatch:
    def _problems(self, tag):
        return [_problem(f"ss_{tag}_{i}", bound=150 + 13 * i)
                for i in range(4)]

    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_batch_deterministic_across_backends(self, backend, jobs):
        problems = self._problems("batch")
        serial = Session().count_batch(problems, _request())
        parallel = Session(jobs=jobs, backend=backend).count_batch(
            problems, _request())
        assert [r.problem for r in parallel] == [p.name for p in problems]
        assert ([r.estimate for r in parallel]
                == [r.estimate for r in serial])
        assert ([r.estimates for r in parallel]
                == [r.estimates for r in serial])

    def test_batch_uses_cache(self, tmp_path):
        problems = self._problems("bcache")
        with Session(cache_dir=tmp_path) as session:
            first = session.count_batch(problems, _request())
            second = session.count_batch(problems, _request())
        assert not any(r.cached for r in first)
        assert all(r.cached for r in second)
        assert ([r.estimate for r in second]
                == [r.estimate for r in first])

    def test_batch_takes_one_request_per_problem(self, tmp_path):
        """Each problem under its own request, as the evaluation matrix
        runs its slots; a slot's row is the one Session.count of the
        same problem and request reads."""
        problems = self._problems("bper")[:2]
        requests = [_request(counter="enum"), _request()]
        with Session(cache_dir=tmp_path) as session:
            responses = session.count_batch(problems, requests)
            single = session.count(problems[1], requests[1])
        assert [r.counter for r in responses] == ["enum", "pact:xor"]
        assert single.cached
        assert single.estimate == responses[1].estimate

    def test_batch_rejects_a_request_per_problem_mismatch(self):
        from repro.errors import CounterError
        with pytest.raises(CounterError):
            Session().count_batch(self._problems("bmis"), [_request()])


class TestPortfolio:
    COUNTERS = ("pact:xor", "pact:prime", "cdm")

    def test_winner_deterministic_under_fixed_seed(self):
        problem = _problem("ss_port")
        runs = [Session().portfolio(problem, self.COUNTERS,
                                    _request(counter="pact:xor"))
                for _ in range(2)]
        assert runs[0].winner == runs[1].winner == "pact:xor"
        assert (runs[0].response.estimate == runs[1].response.estimate)
        assert ([e.status for e in runs[0].entries]
                == [e.status for e in runs[1].entries])

    def test_losers_cancelled_cooperatively(self):
        outcome = Session().portfolio(_problem("ss_port2"),
                                      self.COUNTERS, _request())
        assert outcome.entries[0].solved
        assert all(entry.status is Status.CANCELLED
                   for entry in outcome.entries[1:])

    def test_first_successful_counter_wins(self):
        """A failing first counter passes the baton down the list."""
        outcome = Session().portfolio(
            _problem("ss_port3"), ("enum", "pact:xor"),
            _request(counter="enum", limit=3))
        assert outcome.entries[0].status is Status.LIMIT
        assert outcome.winner == "pact:xor"
        assert outcome.response.solved

    def test_report_includes_per_counter_timing(self):
        outcome = Session().portfolio(_problem("ss_port4"),
                                      self.COUNTERS, _request())
        report = outcome.report()
        for name in self.COUNTERS:
            assert name in report
        assert "winner=pact:xor" in report
        assert "s" in report  # timing column

    def test_parallel_portfolio_solves(self):
        outcome = Session(jobs=2, backend="thread").portfolio(
            _problem("ss_port5"), self.COUNTERS, _request())
        assert outcome.solved
        assert len(outcome.entries) == len(self.COUNTERS)
        assert outcome.response.estimate is not None

    @pytest.mark.parametrize("jobs,backend", [
        (1, "serial"), (2, "thread"), (2, "process")])
    def test_expired_outer_deadline_cancels_every_racer(self, jobs,
                                                        backend):
        """An outer deadline that has already expired (a server drain
        that came first) starts no racer: each entry is cancelled and
        reported as such, and there is no winner."""
        from repro.utils.deadline import Deadline
        events = []
        outcome = Session(jobs=jobs, backend=backend).portfolio(
            _problem("ss_port6"), self.COUNTERS, _request(),
            deadline=Deadline(0), progress=events.append)
        assert outcome.winner is None and not outcome.solved
        assert [entry.counter for entry in outcome.entries] == list(
            self.COUNTERS)
        assert all(entry.status is Status.CANCELLED
                   and entry.detail == "portfolio: deadline expired"
                   for entry in outcome.entries)
        assert [(event.kind, event.counter) for event in events] == [
            ("cancelled", name) for name in self.COUNTERS]


@pytest.mark.parametrize("jobs,backend", [(1, "serial"), (2, "thread")])
def test_in_process_pools_never_print_the_problem(monkeypatch, jobs,
                                                  backend):
    """Serial and thread pools hand workers the caller's Problem itself:
    with printing broken, a batch (two problems x two counters) and a
    portfolio still give the serial answers."""
    problems = [_problem(f"ss_ref_{i}", bound=150 + 13 * i)
                for i in range(2)]
    requests = [_request(), _request(counter="exact:cc")]
    slots = [(problem, request) for request in requests
             for problem in problems]
    race = ("exact:cc", "enum")

    def answers(session):
        batch = session.count_batch([problem for problem, _ in slots],
                                    [request for _, request in slots])
        outcome = session.portfolio(problems[0], race, _request())
        return ([(r.counter, r.status, r.estimate, r.estimates)
                 for r in batch], outcome.response.estimate)

    expected = answers(Session())

    def unprintable(problem):
        raise AssertionError(f"{problem.name} was printed")

    monkeypatch.setattr(Problem, "script", property(unprintable))
    assert answers(Session(pool=ExecutionPool(jobs, backend))) == expected
