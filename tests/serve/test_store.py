"""SqliteStore: the ResultStore contract, multi-process safety, and the
differential harness against the JSON cache — same keys, same payloads,
same CountResponse from either backend."""

import json
import sqlite3
import threading

from repro.api import CountRequest, Problem, Session
from repro.engine.cache import ResultCache, ResultStore
from repro.serve.store import SqliteStore, open_store
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

    def test_corrupt_row_reads_as_miss(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SqliteStore(path)
        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO entries VALUES ('bad', '{torn', 1.0, 1.0)")
        connection.commit()
        connection.close()
        assert store.get("bad") is None
        assert store.misses == 1
        store.close()

    def test_context_manager_closes(self, tmp_path):
        with SqliteStore(tmp_path / "store.sqlite") as store:
            store.put("fp1", PAYLOAD)
        # The connection is gone; a fresh store still sees the row.
        with SqliteStore(tmp_path / "store.sqlite") as fresh:
            assert fresh.get("fp1") is not None


class TestArtifacts:
    def test_round_trip_lands_in_the_simplified_row(self, tmp_path):
        """Artifacts live in the ``simplified = 1`` row, where stores
        written by earlier versions keep theirs."""
        path = tmp_path / "store.sqlite"
        store = SqliteStore(path)
        assert not store.has_artifact("d1")
        store.put_artifact("d1", {"cnf": [1, 2]})
        assert store.has_artifact("d1")
        assert store.get_artifact("d1") == {"cnf": [1, 2]}
        assert store.artifact_hits == 1
        assert store.get_artifact("missing") is None
        assert store.artifact_misses == 1
        store.close()
        with sqlite3.connect(path) as conn:
            rows = conn.execute(
                "SELECT digest, simplified, payload FROM artifacts"
            ).fetchall()
        assert rows == [("d1", 1, json.dumps({"cnf": [1, 2]}))]

    def test_lru_trim_at_put(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite", max_artifacts=2)
        for n in range(4):
            store.put_artifact(f"d{n}", {"n": n})
        assert store.artifact_evictions == 2
        assert not store.has_artifact("d0")
        assert store.has_artifact("d3")
        store.close()


class TestOpenStore:
    def test_sqlite_suffixes_open_sqlite(self, tmp_path):
        for name in ("a.sqlite", "b.sqlite3", "c.db"):
            store = open_store(tmp_path / name)
            assert isinstance(store, SqliteStore)
            store.close()

    def test_sqlite_prefix_opens_sqlite(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path / 'plain-name'}")
        assert isinstance(store, SqliteStore)
        store.close()

    def test_directory_opens_json_cache(self, tmp_path):
        store = open_store(tmp_path / "cachedir")
        assert isinstance(store, ResultCache)
        assert isinstance(store, ResultStore)


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

    def test_threaded_writers_lose_nothing(self, tmp_path):
        store = SqliteStore(tmp_path / "store.sqlite")
        errors = []

        def writer(base):
            try:
                for n in range(25):
                    store.put(f"fp-{base}-{n}", PAYLOAD)
                    store.get(f"fp-{base}-{n}")
                    store.put_artifact(f"d-{base}-{n}", {"n": n})
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


class TestDifferential:
    """The ISSUE's acceptance bar: the sqlite store round-trips the same
    fingerprint/artifact keys as the JSON cache — a session can switch
    backends and serve the identical CountResponse."""

    def test_payload_round_trip_is_identical(self, tmp_path):
        json_store = ResultCache(tmp_path / "jsoncache")
        sqlite_store = SqliteStore(tmp_path / "store.sqlite")
        json_store.put("fp1", dict(PAYLOAD))
        sqlite_store.put("fp1", dict(PAYLOAD))
        from_json = json_store.get("fp1")
        from_sqlite = sqlite_store.get("fp1")
        from_json.pop("used_at")      # recency stamps are wall-clock
        from_sqlite.pop("used_at")
        assert from_json == from_sqlite
        json_store.flush()
        sqlite_store.close()

    def test_artifact_round_trip_is_identical(self, tmp_path):
        payload = {"digest": "d1", "cnf": [[1, -2], [2]], "vars": 2}
        json_store = ResultCache(tmp_path / "jsoncache")
        sqlite_store = SqliteStore(tmp_path / "store.sqlite")
        json_store.put_artifact("d1", payload)
        sqlite_store.put_artifact("d1", payload)
        assert (json_store.get_artifact("d1")
                == sqlite_store.get_artifact("d1") == payload)
        sqlite_store.close()

    def test_json_written_entries_hit_through_sqlite(self, tmp_path):
        """Counting with the JSON cache, copying the rows into sqlite,
        then counting against sqlite must be a cache hit with the same
        response — the fingerprint keys are backend-independent."""
        problem = _problem("store_diff")
        request = _request()
        with Session(cache_dir=tmp_path / "jsoncache") as session:
            solved = session.count(problem, request)
        json_store = ResultCache(tmp_path / "jsoncache")
        sqlite_store = SqliteStore(tmp_path / "store.sqlite")
        key = problem.fingerprint(request.cache_params("pact:xor"))
        entry = json_store.get(key)
        assert entry is not None
        sqlite_store.put(key, entry)

        with Session(cache=sqlite_store) as session:
            replayed = session.count(problem, request)
        assert replayed.cached
        assert replayed.estimate == solved.estimate
        assert replayed.status is solved.status
        assert replayed.exact == solved.exact
        sqlite_store.close()

    def test_same_response_counting_against_either_backend(self, tmp_path):
        problem = _problem("store_same")
        request = _request()
        with Session(cache_dir=tmp_path / "jsoncache") as session:
            via_json = session.count(problem, request)
        with Session(cache_dir=tmp_path / "store.sqlite") as session:
            via_sqlite = session.count(problem, request)
            repeat = session.count(problem, request)
        assert via_json.estimate == via_sqlite.estimate
        assert via_json.estimates == via_sqlite.estimates
        assert repeat.cached
        assert repeat.estimate == via_json.estimate
