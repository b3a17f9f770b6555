"""Engine benchmark: serial vs parallel wall-clock on a multi-instance
suite, plus the fingerprint cache's effect on a repeated run.

The paper's evaluation matrix is embarrassingly parallel (independent
per-slot budgets); this benchmark records how the matrix, one session
batch, exploits that with process workers, and how the result cache
collapses a repeated identical run to near-zero solver work.  On a single-CPU
machine the parallel run shows pool overhead instead of speedup — the
artifact records the measured ratio either way (the determinism tests
guarantee the *results* are identical regardless of backend).
"""

import os
import time

from benchmarks.conftest import emit, emit_json
from repro.api import Session
from repro.benchgen.suite import build_suite
from repro.engine import ExecutionPool
from repro.harness.presets import Preset
from repro.harness.report import format_table, matrix_summary
from repro.harness.runner import run_matrix
from repro.serve.store import SqliteStore, database_path

PRESET = Preset.smoke()
CONFIGURATIONS = ("pact_xor", "pact_shift")


def _suite():
    return build_suite(per_logic=1, base_seed=PRESET.base_seed,
                       widths=(9, 10))


def _solved_set(records):
    return {(r.configuration, r.instance, r.estimate)
            for r in records if r.solved}


def test_parallel_matrix_wall_clock(results_dir):
    instances = _suite()
    jobs = max(2, min(4, os.cpu_count() or 1))

    start = time.monotonic()
    serial = run_matrix(instances, PRESET,
                        configurations=CONFIGURATIONS,
                        pool=ExecutionPool(1))
    serial_wall = time.monotonic() - start

    start = time.monotonic()
    parallel = run_matrix(instances, PRESET,
                          configurations=CONFIGURATIONS,
                          pool=ExecutionPool(jobs, "process"))
    parallel_wall = time.monotonic() - start

    assert _solved_set(parallel) == _solved_set(serial)

    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    table = format_table(
        ["mode", "slots", "wall_s", "cpu_s"],
        [["serial (jobs=1)", len(serial),
          f"{serial_wall:.2f}",
          f"{sum(r.time_seconds for r in serial):.2f}"],
         [f"process (jobs={jobs})", len(parallel),
          f"{parallel_wall:.2f}",
          f"{sum(r.time_seconds for r in parallel):.2f}"]],
        title=(f"Matrix wall-clock, {len(instances)} instances x "
               f"{len(CONFIGURATIONS)} configurations "
               f"({os.cpu_count()} CPUs visible)"))
    emit(results_dir, "parallel_speedup.txt",
         table + f"\n\nspeedup (serial/parallel): {speedup:.2f}x")
    emit_json(results_dir, "parallel", {
        "jobs": jobs,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": round(parallel_wall, 3),
        "speedup": round(speedup, 3),
    })


def test_cache_collapses_repeat_run(results_dir, tmp_path):
    instances = _suite()
    start = time.monotonic()
    with SqliteStore(database_path(tmp_path)) as cold_cache:
        cold = run_matrix(instances, PRESET,
                          configurations=CONFIGURATIONS, cache=cold_cache)
    cold_wall = time.monotonic() - start

    start = time.monotonic()
    with SqliteStore(database_path(tmp_path)) as warm_cache:
        session = Session(cache=warm_cache)
        warm = run_matrix(instances, PRESET,
                          configurations=CONFIGURATIONS,
                          pool=session.pool, cache=warm_cache)
        warm_wall = time.monotonic() - start
        summary = matrix_summary(warm, session, warm_wall, PRESET)
    hits = sum(1 for r in warm if r.cached)

    assert hits == len(warm)
    assert _solved_set(warm) == _solved_set(cold)
    assert warm_wall < cold_wall

    emit(results_dir, "parallel_cache.txt",
         summary
         + f"\n\ncold run {cold_wall:.2f}s -> warm run {warm_wall:.3f}s")
    emit_json(results_dir, "parallel", {
        "cold_wall_seconds": round(cold_wall, 3),
        "warm_wall_seconds": round(warm_wall, 3),
        "cache_hits_on_repeat": hits,
    })
