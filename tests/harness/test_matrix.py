"""The evaluation matrix as one Session batch: ordering, pool dispatch,
fingerprint cache reuse, and an interrupt that leaves a resumable
store."""

import sqlite3
import time

import pytest

from repro.api import Session
from repro.benchgen.generators import qf_bvfp, qf_ufbv
from repro.engine import ExecutionPool
from repro.harness.presets import Preset
from repro.harness.report import matrix_summary
from repro.harness.runner import run_matrix
from repro.serve.store import SqliteStore, database_path

PRESET = Preset.smoke()
CONFIGS = ("pact_xor", "pact_shift")


@pytest.fixture(scope="module")
def instances():
    return [qf_bvfp(seed=3, width=9), qf_ufbv(seed=4, width=9)]


@pytest.fixture(scope="module")
def serial_records(instances):
    return run_matrix(instances, PRESET, configurations=CONFIGS)


def _store(directory):
    return SqliteStore(database_path(directory))


def _comparable(records):
    return [(r.configuration, r.instance, r.solved, r.estimate, r.status)
            for r in records]


class TestScheduling:
    def test_instance_major_order(self, instances, serial_records):
        expected = [(instance.name, configuration)
                    for instance in instances for configuration in CONFIGS]
        assert [(r.instance, r.configuration)
                for r in serial_records] == expected

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, instances, serial_records,
                                     backend):
        pool = ExecutionPool(2, backend)
        records = run_matrix(instances, PRESET, configurations=CONFIGS,
                             pool=pool)
        assert _comparable(records) == _comparable(serial_records)
        assert sum(count for count, _ in pool.worker_times.values()) == 4

    def test_progress_callback_sees_every_slot(self, instances):
        seen = []
        run_matrix(instances, PRESET, configurations=CONFIGS,
                   progress=lambda event: seen.append(event.problem))
        assert len(seen) == len(instances) * len(CONFIGS)


class TestCache:
    def test_second_run_served_from_cache(self, instances, tmp_path):
        first = run_matrix(instances, PRESET, configurations=CONFIGS,
                           cache=_store(tmp_path))
        assert not any(r.cached for r in first)

        second = run_matrix(instances, PRESET, configurations=CONFIGS,
                            cache=_store(tmp_path))
        assert all(r.cached for r in second)
        assert _comparable(second) == _comparable(first)

    def test_different_preset_does_not_hit(self, instances, tmp_path):
        run_matrix(instances, PRESET, configurations=CONFIGS,
                   cache=_store(tmp_path))
        other = Preset(name="other", instances_per_logic=3, timeout=2.5,
                       iteration_override=2)
        records = run_matrix(instances, other, configurations=CONFIGS,
                             cache=_store(tmp_path))
        assert not any(r.cached for r in records)

    def test_summary_reports_cache_and_workers(self, instances, tmp_path):
        texts = []
        for _ in range(2):
            with _store(tmp_path) as cache:
                session = Session(cache=cache)
                start = time.monotonic()
                records = run_matrix(instances, PRESET,
                                     configurations=CONFIGS,
                                     pool=session.pool, cache=cache)
                texts.append(matrix_summary(
                    records, session, time.monotonic() - start, PRESET))
        cold, warm = texts
        assert "Run summary" in cold
        assert "cache: 0 hits, 4 misses" in cold
        assert "Workers" in cold and "serial" in cold
        assert "cache: 4 hits, 0 misses" in warm
        assert "Workers" not in warm

    def test_process_pool_runs_twice_against_a_directory_store(
            self, instances, tmp_path):
        """The store's connection stays open in the orchestrator while
        the process backend forks its workers; the rows it writes must
        all hit on the next run and leave an intact database."""
        runs = []
        for _ in range(2):
            with _store(tmp_path) as cache:
                runs.append(run_matrix(
                    instances, PRESET, configurations=CONFIGS,
                    pool=ExecutionPool(2, "process"), cache=cache))
        cold, warm = runs
        assert not any(r.cached for r in cold)
        assert all(r.cached for r in warm)
        assert _comparable(warm) == _comparable(cold)
        with sqlite3.connect(tmp_path / "pact-cache.sqlite") as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone() == (
                "ok",)


def test_an_interrupt_propagates_and_the_next_run_resumes(instances,
                                                          tmp_path):
    """An interrupt after the first slot reaches the caller instead of a
    partial matrix that reads like a whole one; the slot counted before
    it is in the store, and only that slot is served on the next run."""
    def interrupt(event):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_matrix(instances, PRESET, configurations=CONFIGS,
                   cache=_store(tmp_path), progress=interrupt)
    records = run_matrix(instances, PRESET, configurations=CONFIGS,
                         cache=_store(tmp_path))
    assert [r.cached for r in records] == [True, False, False, False]
