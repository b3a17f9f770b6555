"""SqliteStore: the result-store contract, the path rule, multi-process
safety, databases written by earlier versions, and round trips checked
against the in-memory payloads and responses they stored."""

import json
import sqlite3
import threading

import pytest

from repro.api import CountRequest, Problem, Session
from repro.serve.store import SqliteStore, database_path
from repro.smt.terms import bv_ult, bv_val, bv_var

PAYLOAD = {"estimate": 20, "status": "ok", "exact": False,
           "time_seconds": 0.01, "solver_calls": 3, "saved_at": 100.0}


def _problem(name, width=8, bound=200):
    x = bv_var(name, width)
    return Problem.from_terms([bv_ult(x, bv_val(bound, width))], [x],
                              name=name)


def _request(**overrides):
    defaults = dict(counter="pact:xor", seed=11, iteration_override=3)
    defaults.update(overrides)
    return CountRequest(**defaults)


class TestResultStoreContract:
    def test_round_trip_and_accounting(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite")
        assert store.get("fp1") is None
        store.put("fp1", PAYLOAD)
        entry = store.get("fp1")
        assert entry["estimate"] == 20
        assert entry["status"] == "ok"
        assert store.stats["hits"] == 1
        assert store.stats["misses"] == 1
        assert len(store) == 1
        store.close()

    def test_rows_durable_without_flush(self, tmp_path):
        path = tmp_path / "store.sqlite"
        first = SqliteStore(path)
        first.put("fp1", PAYLOAD)     # no flush, no close
        second = SqliteStore(path)
        assert second.get("fp1")["estimate"] == 20
        first.close()
        second.close()

    def test_flush_without_changes_writes_nothing(self, tmp_path):
        """Rows are durable at put time: an unbounded flush issues no
        write, so an all-hit run leaves the database untouched."""
        store = SqliteStore(tmp_path / "store.sqlite")
        store.put("fp1", PAYLOAD)
        assert store.get("fp1") is not None
        writes = store._conn.total_changes
        store.flush()
        assert store._conn.total_changes == writes
        store.close()

    def test_merge_on_write_preserves_first_saved_at(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite")
        store.put("fp1", dict(PAYLOAD))
        row = store._conn.execute(
            "SELECT saved_at FROM entries WHERE fingerprint='fp1'"
        ).fetchone()
        assert row[0] == 100.0
        store.put("fp1", {"estimate": 21, "status": "ok",
                          "saved_at": 999.0})
        row = store._conn.execute(
            "SELECT saved_at, payload FROM entries"
            " WHERE fingerprint='fp1'").fetchone()
        assert row[0] == 100.0                      # first write's stamp
        assert json.loads(row[1])["estimate"] == 21  # newest payload wins
        store.close()

    def test_lru_eviction_at_flush(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite", max_entries=2)
        for n in range(4):
            store.put(f"fp{n}", dict(PAYLOAD, saved_at=float(n),
                                     used_at=float(n)))
        store.flush()
        assert len(store) == 2
        assert store.evictions == 2
        assert store.get("fp0") is None       # oldest went first
        assert store.get("fp3") is not None
        store.close()

    def test_hit_refreshes_recency_only_when_bounded(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite", max_entries=2)
        for n in range(2):
            store.put(f"fp{n}", dict(PAYLOAD, used_at=float(n)))
        assert store.get("fp0") is not None   # refresh fp0's recency
        store.put("fp2", PAYLOAD)
        store.flush()
        assert store.get("fp0") is not None   # survived: recently hit
        assert store.get("fp1") is None       # evicted instead
        store.close()

    def test_recency_survives_reload(self, tmp_path):
        path = tmp_path / "store.sqlite"
        first = SqliteStore(path, max_entries=10)
        first.put("a", PAYLOAD)
        first.put("b", PAYLOAD)
        first.get("a")     # a is now more recent than b
        first.close()
        second = SqliteStore(path, max_entries=2)
        second.put("c", PAYLOAD)
        second.flush()
        assert len(second) == 2
        assert second.get("b") is None
        assert second.get("a") is not None
        second.close()

    def test_unbounded_by_default(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite")
        for n in range(50):
            store.put(f"fp{n}", PAYLOAD)
        store.flush()
        assert len(store) == 50
        assert store.evictions == 0
        store.close()

    def test_corrupt_row_reads_as_miss(self, tmp_path):
        """A payload that is not a JSON object — torn text, or valid
        JSON of another type — is a miss, never a hit."""
        path = tmp_path / "store.sqlite"
        store = SqliteStore(path)
        payloads = ["{torn", "null", "[1, 2]", "17"]
        with sqlite3.connect(path) as connection:
            connection.executemany(
                "INSERT INTO entries VALUES (?, ?, 1.0, 1.0)",
                [(f"bad{n}", text) for n, text in enumerate(payloads)])
        for n in range(len(payloads)):
            assert store.get(f"bad{n}") is None
        assert (store.hits, store.misses) == (0, len(payloads))
        store.close()

    @pytest.mark.parametrize("text", ["null", "[1, 2]", "17"])
    def test_count_through_a_non_object_row_solves_and_overwrites(
            self, tmp_path, text):
        problem = _problem("store_nonobj")
        request = _request()
        key = problem.fingerprint(request.cache_params("pact:xor"))
        reference = Session().count(problem, request)
        path = tmp_path / "store.sqlite"
        SqliteStore(path).close()
        with sqlite3.connect(path) as connection:
            connection.execute(
                "INSERT INTO entries VALUES (?, ?, 1.0, 1.0)", (key, text))
        with Session(cache_dir=path) as session:
            response = session.count(problem, request)
            assert not response.cached
            assert response.estimate == reference.estimate
            assert (session.cache.hits, session.cache.misses) == (0, 1)
            assert session.cache.get(key)["estimate"] == reference.estimate

    def test_context_manager_closes(self, tmp_path):
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.put("fp1", PAYLOAD)
        # The connection is gone; a fresh store still sees the row.
        with SqliteStore(tmp_path / "store.sqlite") as fresh:
            assert fresh.get("fp1") is not None

    def test_context_manager_flushes_the_bound(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SqliteStore(path, max_entries=1) as store:
            store.put("fp1", PAYLOAD)
            store.put("fp2", dict(PAYLOAD, estimate=9))
        with SqliteStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get("fp2")["estimate"] == 9


class TestOpenStore:
    def test_fresh_file_holds_results_and_components_only(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteStore(path).close()
        with sqlite3.connect(path) as connection:
            tables = connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
                " ORDER BY name").fetchall()
        assert tables == [("components",), ("entries",)]

    def test_sqlite_suffixes_open_sqlite(self, tmp_path):
        for name in ("a.sqlite", "b.sqlite3", "c.db"):
            assert database_path(tmp_path / name) == tmp_path / name
            session = Session(cache_dir=tmp_path / name)
            assert session.cache.path == tmp_path / name
            assert (tmp_path / name).is_file()
            session.cache.close()

    def test_directory_opens_pact_cache_sqlite(self, tmp_path):
        for name in ("cachedir", "x.json"):
            session = Session(cache_dir=str(tmp_path / name))
            expected = tmp_path / name / "pact-cache.sqlite"
            assert session.cache.path == expected
            assert expected.is_file()
            session.cache.close()

    def test_stray_pact_cache_json_is_left_untouched(self, tmp_path):
        """A (torn) ``pact-cache.json`` left by an earlier version in the
        store's directory is never read: the store starts empty, and the
        file stays as it was."""
        legacy = tmp_path / "pact-cache.json"
        legacy.write_text("{not json!!")
        store = SqliteStore(database_path(tmp_path))
        assert store.get("fp1") is None
        store.put("fp1", PAYLOAD)
        store.close()
        with SqliteStore(database_path(tmp_path)) as reopened:
            assert reopened.get("fp1")["estimate"] == 20
        assert legacy.read_text() == "{not json!!"


class TestConcurrency:
    def test_two_instances_share_one_file(self, tmp_path):
        """Two connections (stand-ins for two processes) on the same
        database: every row written by either is visible to both."""
        path = tmp_path / "store.sqlite"
        first, second = SqliteStore(path), SqliteStore(path)
        first.put("fp-a", PAYLOAD)
        second.put("fp-b", PAYLOAD)
        assert second.get("fp-a") is not None
        assert first.get("fp-b") is not None
        assert len(first) == len(second) == 2
        first.close()
        second.close()

    def test_conflicting_fingerprint_later_writer_wins(self, tmp_path):
        path = tmp_path / "store.sqlite"
        first, second = SqliteStore(path), SqliteStore(path)
        first.put("fp", dict(PAYLOAD, estimate=1))
        second.put("fp", dict(PAYLOAD, estimate=2))
        first.close()
        second.close()
        with SqliteStore(path) as merged:
            assert merged.get("fp")["estimate"] == 2

    def test_threaded_writers_lose_nothing(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite")
        errors = []

        def writer(base):
            try:
                for n in range(25):
                    store.put(f"fp-{base}-{n}", PAYLOAD)
                    store.get(f"fp-{base}-{n}")
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store) == 150
        assert store.hits == 150
        store.close()

    def test_threaded_put_flush_on_one_instance(self, tmp_path):
        """The serving layer's workers share one store instance; puts
        and flushes from many threads must not lose rows or crash."""
        path = tmp_path / "store.sqlite"
        store = SqliteStore(path)
        errors = []

        def hammer(base):
            try:
                for n in range(20):
                    store.put(f"fp-{base}-{n}", PAYLOAD)
                    if n % 5 == 0:
                        store.flush()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()
        assert not errors
        with SqliteStore(path) as reread:
            assert len(reread) == 160


class TestDifferential:
    """Round trips against their reference: the in-memory payload or
    :class:`CountResponse` that was stored."""

    def test_payload_round_trip_is_identical(self, tmp_path):
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.put("fp1", dict(PAYLOAD))
            stored = store.get("fp1")
        assert stored.pop("used_at") >= PAYLOAD["saved_at"]
        assert stored == PAYLOAD

    def test_same_response_counting_against_either_backend(self, tmp_path):
        """Counting with no store, through a store, and replaying the
        stored row all give the same response."""
        problem = _problem("store_same")
        request = _request()
        reference = Session().count(problem, request)
        with Session(cache_dir=tmp_path) as session:
            solved = session.count(problem, request)
            replayed = session.count(problem, request)
        assert not solved.cached and replayed.cached
        for response in (solved, replayed):
            assert response.estimate == reference.estimate
            assert response.status is reference.status
            assert response.exact == reference.exact
        assert solved.estimates == reference.estimates


# The parent's DDL of the results database, verbatim.
PARENT_RESULTS_DDL = """
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    saved_at    REAL NOT NULL,
    used_at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    digest     TEXT NOT NULL,
    simplified INTEGER NOT NULL,
    payload    TEXT NOT NULL,
    used_at    REAL NOT NULL,
    PRIMARY KEY (digest, simplified)
);
"""


class TestEarlierDatabases:
    def test_parent_results_database_serves_hits(self, tmp_path):
        """A results database built with the earlier DDL serves its
        result rows as cache hits; its ``artifacts`` rows are neither
        read nor written, so a count that misses compiles once."""
        from repro.compile import compile_counters, reset_compile_memo

        problem = _problem("store_parent")
        request = _request()
        reset_compile_memo()
        try:
            with Session(cache_dir=tmp_path / "fresh.sqlite") as session:
                solved = session.count(problem, request)
                rows = session.cache._conn.execute(
                    "SELECT fingerprint, payload, saved_at, used_at"
                    " FROM entries").fetchall()
            path = tmp_path / "parent.sqlite"
            artifacts = [(problem.compile_key, 1, '{"version": 1}', 1.0)]
            with sqlite3.connect(path) as connection:
                connection.executescript(PARENT_RESULTS_DDL)
                connection.executemany(
                    "INSERT INTO entries VALUES (?, ?, ?, ?)", rows)
                connection.executemany(
                    "INSERT INTO artifacts VALUES (?, ?, ?, ?)", artifacts)
            reset_compile_memo()
            with Session(cache_dir=path) as session:
                replayed = session.count(problem, request)
                reseeded = session.count(problem, request, seed=12)
            assert replayed.cached
            assert replayed.estimate == solved.estimate
            assert not reseeded.cached and reseeded.solved
            assert compile_counters()["builds"] == 1
            with sqlite3.connect(path) as connection:
                assert connection.execute(
                    "SELECT * FROM artifacts").fetchall() == artifacts
        finally:
            reset_compile_memo()
