"""Fingerprints and the JSON-on-disk result cache."""

import json

from repro.engine.cache import (
    ResultCache, formula_fingerprint, script_fingerprint,
)
from repro.smt.terms import bv_ult, bv_val, bv_var


def _formula(width=8, bound=100, name="cf_x"):
    x = bv_var(name, width)
    return [bv_ult(x, bv_val(bound, width))], [x]


class TestFingerprint:
    def test_deterministic(self):
        assertions, projection = _formula()
        params = {"family": "xor", "epsilon": 0.8}
        assert (formula_fingerprint(assertions, projection, params)
                == formula_fingerprint(assertions, projection, params))

    def test_sensitive_to_formula(self):
        a1, p1 = _formula(bound=100)
        a2, p2 = _formula(bound=101)
        assert (formula_fingerprint(a1, p1)
                != formula_fingerprint(a2, p2))

    def test_sensitive_to_projection_sort(self):
        assertions, _ = _formula()
        assert (formula_fingerprint(assertions, [bv_var("cf_p", 8)])
                != formula_fingerprint(assertions, [bv_var("cf_p", 9)]))

    def test_sensitive_to_params(self):
        assertions, projection = _formula()
        assert (formula_fingerprint(assertions, projection,
                                    {"family": "xor"})
                != formula_fingerprint(assertions, projection,
                                       {"family": "prime"}))

    def test_script_fingerprint_params(self):
        assert (script_fingerprint("(assert true)", {"seed": 1})
                != script_fingerprint("(assert true)", {"seed": 2}))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("fp1") is None
        cache.put("fp1", {"estimate": 42, "status": "ok"})
        entry = cache.get("fp1")
        assert entry["estimate"] == 42
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1,
                               "evictions": 0, "artifact_hits": 0,
                               "artifact_misses": 0,
                               "artifact_evictions": 0}

    def test_round_trips_through_disk(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("fp1", {"estimate": 7, "status": "ok"})
        first.flush()
        second = ResultCache(tmp_path)
        assert second.get("fp1")["estimate"] == 7
        assert second.path.exists()

    def test_flush_without_changes_writes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.flush()
        assert not cache.path.exists()

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "pact-cache.json"
        path.write_text("{not json!!")
        cache = ResultCache(tmp_path)
        assert cache.get("fp1") is None
        cache.put("fp1", {"estimate": 1, "status": "ok"})
        cache.flush()
        assert ResultCache(tmp_path).get("fp1")["estimate"] == 1

    def test_context_manager_flushes(self, tmp_path):
        with ResultCache(tmp_path) as cache:
            cache.put("fp2", {"estimate": 9, "status": "ok"})
        assert ResultCache(tmp_path).get("fp2")["estimate"] == 9


class TestLruBound:
    def test_bound_enforced_at_flush(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        for index in range(6):
            cache.put(f"fp{index}", {"estimate": index, "status": "ok"})
        cache.flush()
        assert len(cache) == 3
        assert cache.evictions == 3
        assert cache.stats["evictions"] == 3
        # the most recent entries survive
        assert cache.get("fp5") is not None
        assert cache.get("fp0") is None

    def test_eviction_is_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        cache.put("old", {"estimate": 1, "status": "ok"})
        cache.put("mid", {"estimate": 2, "status": "ok"})
        cache.put("new", {"estimate": 3, "status": "ok"})
        assert cache.get("old") is not None  # refresh: old is now recent
        cache.flush()
        assert cache.get("mid") is None  # mid was the LRU entry
        assert cache.get("old") is not None
        assert cache.get("new") is not None

    def test_recency_survives_reload(self, tmp_path):
        first = ResultCache(tmp_path, max_entries=10)
        first.put("a", {"estimate": 1, "status": "ok"})
        first.put("b", {"estimate": 2, "status": "ok"})
        first.get("a")
        first.flush()
        second = ResultCache(tmp_path, max_entries=1)
        second.put("c", {"estimate": 3, "status": "ok"})
        second.flush()
        assert len(second) == 1
        assert second.get("c") is not None

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(50):
            cache.put(f"fp{index}", {"estimate": index, "status": "ok"})
        cache.flush()
        assert len(cache) == 50
        assert cache.evictions == 0


class TestCorruptTolerance:
    def test_corrupt_file_reads_as_empty(self, tmp_path):
        (tmp_path / "pact-cache.json").write_text("{not json")
        cache = ResultCache(tmp_path)
        assert cache.get("fp") is None
        cache.put("fp", {"estimate": 1, "status": "ok"})
        cache.flush()
        assert ResultCache(tmp_path).get("fp") is not None

    def test_corrupt_entry_dropped_not_fatal(self, tmp_path):
        (tmp_path / "pact-cache.json").write_text(json.dumps({
            "version": 1,
            "entries": {"good": {"estimate": 5, "status": "ok"},
                        "bad": "not-a-mapping",
                        "worse": 17},
        }))
        cache = ResultCache(tmp_path)
        assert cache.get("good")["estimate"] == 5
        assert cache.get("bad") is None
        assert cache.get("worse") is None


class TestArtifactStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_artifact("d1") is None
        cache.put_artifact("d1", {"version": 1, "digest": "d1"})
        assert cache.get_artifact("d1")["digest"] == "d1"
        assert cache.stats["artifact_hits"] == 1
        assert cache.stats["artifact_misses"] == 1

    def test_artifact_file_keeps_the_s1_name(self, tmp_path):
        """``<digest>-s1.json`` is where caches written by earlier
        versions keep their artifacts."""
        cache = ResultCache(tmp_path)
        cache.put_artifact("d1", {"digest": "d1"})
        assert [path.name for path in cache.artifact_dir.iterdir()] == [
            "d1-s1.json"]
        (cache.artifact_dir / "d2-s1.json").write_text(
            json.dumps({"digest": "d2"}))
        assert cache.has_artifact("d2")
        assert cache.get_artifact("d2") == {"digest": "d2"}

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.artifact_dir.mkdir(parents=True)
        (cache.artifact_dir / "bad-s1.json").write_text("{broken")
        assert cache.get_artifact("bad") is None

    def test_lru_trim(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, max_artifacts=2)
        for index, digest in enumerate(("a", "b", "c")):
            cache.put_artifact(digest, {"index": index})
            path = cache._artifact_path(digest)
            os.utime(path, (index, index))  # deterministic mtimes
        cache.put_artifact("d", {"index": 3})
        names = sorted(p.name for p in cache.artifact_dir.glob("*.json"))
        assert len(names) == 2
        assert cache.artifact_evictions >= 2
        assert cache.evictions == 0  # result-row evictions stay separate


class TestAtomicWrites:
    """Satellite hardening: temp + fsync + os.replace means a crash (or
    a concurrent reader) can never observe a torn document."""

    def test_crashed_flush_leaves_previous_document_intact(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("fp-first", {"estimate": 1, "status": "ok"})
        cache.flush()
        before = (tmp_path / "pact-cache.json").read_text()

        import os as os_module
        def crash(src, dst):
            raise OSError("simulated crash mid-rename")
        monkeypatch.setattr(os_module, "replace", crash)
        cache.put("fp-second", {"estimate": 2, "status": "ok"})
        try:
            cache.flush()
        except OSError:
            pass
        monkeypatch.undo()

        # The on-disk document is byte-identical to the last good flush
        # and still parses; no temp litter with the target's name.
        assert (tmp_path / "pact-cache.json").read_text() == before
        survivor = ResultCache(tmp_path)
        assert survivor.get("fp-first") is not None
        assert survivor.get("fp-second") is None
        # A later flush (the "process restarted" path) persists it all.
        cache.flush()
        recovered = ResultCache(tmp_path)
        assert recovered.get("fp-second") is not None

    def test_crashed_artifact_write_leaves_no_torn_file(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put_artifact("d1", {"cnf": [1]})
        good = cache._artifact_path("d1").read_text()

        import os as os_module
        def crash(src, dst):
            raise OSError("simulated crash mid-rename")
        monkeypatch.setattr(os_module, "replace", crash)
        try:
            cache.put_artifact("d1", {"cnf": [1, 2, 3]})
        except OSError:
            pass
        monkeypatch.undo()
        assert cache._artifact_path("d1").read_text() == good
        assert cache.get_artifact("d1") == {"cnf": [1]}

    def test_no_temp_files_survive_a_clean_flush(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(5):
            cache.put(f"fp{n}", {"estimate": n, "status": "ok"})
            cache.flush()
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_stale_temp_from_a_dead_writer_is_swept(self, tmp_path):
        import os as os_module
        stale = tmp_path / ".cache-dead123.tmp"
        fresh = tmp_path / ".cache-live456.tmp"
        stale.write_text("{")
        fresh.write_text("{")
        old = 1_000_000.0  # well past STALE_TEMP_SECONDS
        os_module.utime(stale, (old, old))
        cache = ResultCache(tmp_path)
        cache.put("fp", {"estimate": 1, "status": "ok"})
        cache.flush()
        assert not stale.exists()      # dead writer's litter removed
        assert fresh.exists()          # a live writer may still own it


class TestMergeOnWrite:
    def test_two_caches_flushing_one_directory_lose_nothing(
            self, tmp_path):
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)
        first.put("fp-a", {"estimate": 1, "status": "ok"})
        second.put("fp-b", {"estimate": 2, "status": "ok"})
        first.flush()
        second.flush()   # must fold in fp-a, not clobber it
        merged = ResultCache(tmp_path)
        assert merged.get("fp-a")["estimate"] == 1
        assert merged.get("fp-b")["estimate"] == 2

    def test_conflicting_fingerprint_local_row_wins(self, tmp_path):
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)
        first.put("fp", {"estimate": 1, "status": "ok"})
        second.put("fp", {"estimate": 2, "status": "ok"})
        first.flush()
        second.flush()
        assert ResultCache(tmp_path).get("fp")["estimate"] == 2

    def test_threaded_put_flush_on_one_instance(self, tmp_path):
        """The serving layer's workers share one store instance; puts
        and flushes from many threads must not lose rows or crash."""
        import threading
        cache = ResultCache(tmp_path)
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
        cache.flush()
        assert not errors
        reread = ResultCache(tmp_path)
        assert len(reread) == 160
