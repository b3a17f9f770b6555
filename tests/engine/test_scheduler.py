"""Matrix scheduling: ordering, pool dispatch, fingerprint cache reuse."""

import sqlite3

import pytest

from repro.benchgen.generators import qf_bvfp, qf_ufbv
from repro.engine import ExecutionPool, schedule_matrix
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
def serial_run(instances):
    return schedule_matrix(instances, PRESET, configurations=CONFIGS)


def _store(directory):
    return SqliteStore(database_path(directory))


def _comparable(records):
    return [(r.configuration, r.instance, r.solved, r.estimate, r.status)
            for r in records]


class TestScheduling:
    def test_instance_major_order(self, instances, serial_run):
        expected = [(instance.name, configuration)
                    for instance in instances for configuration in CONFIGS]
        assert [(r.instance, r.configuration)
                for r in serial_run.records] == expected

    def test_matches_run_matrix(self, instances, serial_run):
        records = run_matrix(instances, PRESET, configurations=CONFIGS)
        assert _comparable(records) == _comparable(serial_run.records)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_matches_serial(self, instances, serial_run, backend):
        run = schedule_matrix(instances, PRESET, configurations=CONFIGS,
                              pool=ExecutionPool(2, backend))
        assert _comparable(run.records) == _comparable(serial_run.records)
        assert sum(count for count, _ in run.worker_times.values()) == 4

    def test_progress_callback_sees_every_slot(self, instances):
        seen = []
        schedule_matrix(instances, PRESET, configurations=CONFIGS,
                        progress=lambda r: seen.append(r.instance))
        assert len(seen) == len(instances) * len(CONFIGS)


class TestCache:
    def test_second_run_served_from_cache(self, instances, serial_run,
                                          tmp_path):
        cache = _store(tmp_path)
        first = schedule_matrix(instances, PRESET, configurations=CONFIGS,
                                cache=cache)
        assert first.cache_hits == 0
        assert first.cache_misses == 4

        warm = _store(tmp_path)
        second = schedule_matrix(instances, PRESET,
                                 configurations=CONFIGS, cache=warm)
        assert second.cache_hits == 4
        assert second.cache_misses == 0
        assert all(r.cached for r in second.records)
        assert _comparable(second.records) == _comparable(first.records)

    def test_different_preset_does_not_hit(self, instances, tmp_path):
        cache = _store(tmp_path)
        schedule_matrix(instances, PRESET, configurations=CONFIGS,
                        cache=cache)
        other = Preset(name="other", instances_per_logic=3, timeout=2.5,
                       iteration_override=2)
        cold = _store(tmp_path)
        run = schedule_matrix(instances, other, configurations=CONFIGS,
                              cache=cold)
        assert run.cache_hits == 0

    def test_summary_reports_cache_and_workers(self, instances, tmp_path):
        cache = _store(tmp_path)
        schedule_matrix(instances, PRESET, configurations=CONFIGS,
                        cache=cache)
        run = schedule_matrix(instances, PRESET, configurations=CONFIGS,
                              cache=_store(tmp_path))
        text = matrix_summary(run, PRESET)
        assert "cache: 4 hits" in text
        assert "Run summary" in text

    def test_process_pool_runs_twice_against_a_directory_store(
            self, instances, tmp_path):
        """The store's connection stays open in the orchestrator while
        the process backend forks its workers; the rows it writes must
        all hit on the next run and leave an intact database."""
        runs = []
        for _ in range(2):
            with _store(tmp_path) as cache:
                runs.append(schedule_matrix(
                    instances, PRESET, configurations=CONFIGS,
                    pool=ExecutionPool(2, "process"), cache=cache))
        cold, warm = runs
        assert (cold.cache_hits, cold.cache_misses) == (0, 4)
        assert (warm.cache_hits, warm.cache_misses) == (4, 0)
        assert _comparable(warm.records) == _comparable(cold.records)
        with sqlite3.connect(tmp_path / "pact-cache.sqlite") as conn:
            assert conn.execute("PRAGMA integrity_check").fetchone() == (
                "ok",)
