"""The matrix scheduler's result cache: its key (``fingerprint_terms``,
what ``slot_fingerprint`` hashes) and the one store at a directory
target — ``DIR/pact-cache.sqlite``, what ``pact run`` opens by default.
"""

import json
import sqlite3
import threading

from repro.api.problem import fingerprint_terms
from repro.serve.store import SqliteStore, database_path
from repro.smt.terms import bv_ult, bv_val, bv_var


def _formula(width=8, bound=100, name="cf_x"):
    x = bv_var(name, width)
    return [bv_ult(x, bv_val(bound, width))], [x]


def _store(directory, **bounds):
    return SqliteStore(database_path(directory), **bounds)


class TestFingerprint:
    def test_deterministic(self):
        assertions, projection = _formula()
        params = {"family": "xor", "epsilon": 0.8}
        assert (fingerprint_terms(assertions, projection, params)
                == fingerprint_terms(assertions, projection, params))

    def test_sensitive_to_formula(self):
        a1, p1 = _formula(bound=100)
        a2, p2 = _formula(bound=101)
        assert fingerprint_terms(a1, p1) != fingerprint_terms(a2, p2)

    def test_sensitive_to_projection_sort(self):
        assertions, _ = _formula()
        assert (fingerprint_terms(assertions, [bv_var("cf_p", 8)])
                != fingerprint_terms(assertions, [bv_var("cf_p", 9)]))

    def test_sensitive_to_params(self):
        assertions, projection = _formula()
        assert (fingerprint_terms(assertions, projection,
                                  {"family": "xor"})
                != fingerprint_terms(assertions, projection,
                                     {"family": "prime"}))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = _store(tmp_path)
        assert cache.path == tmp_path / "pact-cache.sqlite"
        assert cache.get("fp1") is None
        cache.put("fp1", {"estimate": 42, "status": "ok"})
        entry = cache.get("fp1")
        assert entry["estimate"] == 42
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1,
                               "evictions": 0, "artifact_hits": 0,
                               "artifact_misses": 0,
                               "artifact_evictions": 0}
        cache.close()

    def test_round_trips_through_disk(self, tmp_path):
        first = _store(tmp_path)
        first.put("fp1", {"estimate": 7, "status": "ok"})
        first.close()
        second = _store(tmp_path)
        assert second.get("fp1")["estimate"] == 7
        assert second.path.exists()
        second.close()

    def test_flush_without_changes_writes_nothing(self, tmp_path):
        """Rows are durable at put time: an unbounded flush issues no
        write, so an all-hit run leaves the database untouched."""
        cache = _store(tmp_path)
        cache.put("fp1", {"estimate": 1, "status": "ok"})
        assert cache.get("fp1") is not None
        writes = cache._conn.total_changes
        cache.flush()
        assert cache._conn.total_changes == writes
        cache.close()

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        """A (torn) ``pact-cache.json`` left by an earlier version is
        never read: the directory's store starts empty, and the file is
        left as it was."""
        legacy = tmp_path / "pact-cache.json"
        legacy.write_text("{not json!!")
        cache = _store(tmp_path)
        assert cache.get("fp1") is None
        cache.put("fp1", {"estimate": 1, "status": "ok"})
        cache.close()
        assert _store(tmp_path).get("fp1")["estimate"] == 1
        assert legacy.read_text() == "{not json!!"

    def test_context_manager_flushes(self, tmp_path):
        with _store(tmp_path, max_entries=1) as cache:
            cache.put("fp1", {"estimate": 8, "status": "ok"})
            cache.put("fp2", {"estimate": 9, "status": "ok"})
        with _store(tmp_path) as reopened:
            assert len(reopened) == 1
            assert reopened.get("fp2")["estimate"] == 9


class TestLruBound:
    def test_bound_enforced_at_flush(self, tmp_path):
        cache = _store(tmp_path, max_entries=3)
        for index in range(6):
            cache.put(f"fp{index}", {"estimate": index, "status": "ok"})
        assert len(cache) == 6
        cache.flush()
        assert len(cache) == 3
        assert cache.evictions == 3
        assert cache.stats["evictions"] == 3
        # the most recent entries survive
        assert cache.get("fp5") is not None
        assert cache.get("fp0") is None
        cache.close()

    def test_eviction_is_least_recently_used(self, tmp_path):
        cache = _store(tmp_path, max_entries=2)
        cache.put("old", {"estimate": 1, "status": "ok"})
        cache.put("mid", {"estimate": 2, "status": "ok"})
        cache.put("new", {"estimate": 3, "status": "ok"})
        assert cache.get("old") is not None  # refresh: old is now recent
        cache.flush()
        assert cache.get("mid") is None  # mid was the LRU entry
        assert cache.get("old") is not None
        assert cache.get("new") is not None
        cache.close()

    def test_recency_survives_reload(self, tmp_path):
        first = _store(tmp_path, max_entries=10)
        first.put("a", {"estimate": 1, "status": "ok"})
        first.put("b", {"estimate": 2, "status": "ok"})
        first.get("a")     # a is now more recent than b
        first.close()
        second = _store(tmp_path, max_entries=2)
        second.put("c", {"estimate": 3, "status": "ok"})
        second.flush()
        assert len(second) == 2
        assert second.get("b") is None
        assert second.get("a") is not None
        second.close()

    def test_unbounded_by_default(self, tmp_path):
        cache = _store(tmp_path)
        for index in range(50):
            cache.put(f"fp{index}", {"estimate": index, "status": "ok"})
        cache.flush()
        assert len(cache) == 50
        assert cache.evictions == 0
        cache.close()


class TestCorruptTolerance:
    def test_corrupt_entry_dropped_not_fatal(self, tmp_path):
        cache = _store(tmp_path)
        cache.put("good", {"estimate": 5, "status": "ok"})
        with sqlite3.connect(cache.path) as conn:
            conn.executemany(
                "INSERT INTO entries VALUES (?, ?, 1.0, 1.0)",
                [("bad", json.dumps("not-a-mapping")),
                 ("worse", "17")])
        assert cache.get("good")["estimate"] == 5
        assert cache.get("bad") is None
        assert cache.get("worse") is None
        assert (cache.hits, cache.misses) == (1, 2)
        cache.close()


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        cache = _store(tmp_path)
        assert cache.get_artifact("d1") is None
        cache.put_artifact("d1", {"version": 1, "digest": "d1"})
        assert cache.get_artifact("d1")["digest"] == "d1"
        assert cache.stats["artifact_hits"] == 1
        assert cache.stats["artifact_misses"] == 1
        cache.close()

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        cache = _store(tmp_path)
        with sqlite3.connect(cache.path) as conn:
            conn.executemany(
                "INSERT INTO artifacts VALUES (?, 1, ?, 1.0)",
                [("bad", "{broken"), ("list", "[1, 2]")])
        assert cache.get_artifact("bad") is None
        assert cache.get_artifact("list") is None
        assert cache.artifact_misses == 2
        cache.close()

    def test_lru_trim(self, tmp_path):
        cache = _store(tmp_path, max_artifacts=2)
        for digest in ("a", "b", "c"):
            cache.put_artifact(digest, {"digest": digest})
        assert cache.get_artifact("a") is None   # trimmed at c's put
        cache.put_artifact("d", {"digest": "d"})
        assert not cache.has_artifact("b")
        assert cache.has_artifact("c") and cache.has_artifact("d")
        assert cache.artifact_evictions == 2
        assert cache.evictions == 0  # result-row evictions stay separate
        cache.close()


class TestMergeOnWrite:
    def test_two_caches_flushing_one_directory_lose_nothing(
            self, tmp_path):
        first = _store(tmp_path)
        second = _store(tmp_path)
        first.put("fp-a", {"estimate": 1, "status": "ok"})
        second.put("fp-b", {"estimate": 2, "status": "ok"})
        first.close()
        second.close()
        merged = _store(tmp_path)
        assert merged.get("fp-a")["estimate"] == 1
        assert merged.get("fp-b")["estimate"] == 2
        merged.close()

    def test_conflicting_fingerprint_local_row_wins(self, tmp_path):
        first = _store(tmp_path)
        second = _store(tmp_path)
        first.put("fp", {"estimate": 1, "status": "ok"})
        second.put("fp", {"estimate": 2, "status": "ok"})
        first.close()
        second.close()
        with _store(tmp_path) as merged:
            assert merged.get("fp")["estimate"] == 2

    def test_threaded_put_flush_on_one_instance(self, tmp_path):
        """The serving layer's workers share one store instance; puts
        and flushes from many threads must not lose rows or crash."""
        cache = _store(tmp_path)
        errors = []

        def hammer(base):
            try:
                for n in range(20):
                    cache.put(f"fp-{base}-{n}",
                              {"estimate": n, "status": "ok"})
                    if n % 5 == 0:
                        cache.flush()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.close()
        assert not errors
        with _store(tmp_path) as reread:
            assert len(reread) == 160
