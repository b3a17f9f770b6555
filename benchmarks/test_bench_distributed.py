"""Component-parallel exact counting with the shared component store,
measured on the frontier ``exact.txt`` cannot reach.

Three studies over instances whose counts sit one to two orders of
magnitude beyond the ``exact.txt`` frontier (counts 10^5-10^6 vs the
7k-31k there — far past what ``enum`` could touch under any realistic
budget):

* **frontier** — serial ``exact:cc`` solves each instance exactly
  within the budget; this pins the new instance range and provides the
  reference counts for everything below.
* **scaling** — the same instances through a process-backend
  :class:`~repro.engine.pool.ExecutionPool` at 1/2/4/8 workers; every
  parallel count must be bit-identical to the serial one (the hard
  gate), the wall-clock curve is recorded (not gated — component
  structure, not worker count, bounds the available speedup).
* **shared store** — a cold run populates one on-disk component store
  (the ``components`` table of :class:`~repro.serve.store.SqliteStore`);
  a warm run over the same instances must hit it (hit rate recorded and
  gated > 0) and count identically.

``DIST_BENCH_SMOKE=1`` shrinks the instance pool and the worker matrix
for CI; the bit-identity and store-hit gates always run — only scale is
reduced.

Artifacts: ``bench_results/distributed.txt``,
``bench_results/BENCH_distributed.json``.
"""

import os
import sqlite3
import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.api import Problem
from repro.benchgen.suite import build_suite
from repro.compile import reset_compile_memo
from repro.count_exact import count_compiled
from repro.engine.pool import ExecutionPool
from repro.harness.report import format_table
from repro.status import Status
from repro.utils.stats import median

SMOKE = os.environ.get("DIST_BENCH_SMOKE") == "1"
BUDGET = 60.0
# One order of magnitude past exact.txt's FRONTIER_MIN_COUNT (5000):
# the range this PR's machinery is for.
DIST_MIN_COUNT = 50_000
JOB_COUNTS = (1, 2) if SMOKE else (1, 2, 4, 8)
MAX_INSTANCES = 2 if SMOKE else 6

_frontier_rows = []
_serial = {}            # name -> (count, wall)
_scaling = {}           # jobs -> [wall, ...]
_store_rows = []
_store_hit_rates = []


def _frontier_cases():
    pool = [instance
            for instance in build_suite(per_logic=2, base_seed=29,
                                        widths=(19, 21))
            if (instance.known_count or 0) >= DIST_MIN_COUNT]
    seen_logics = set()
    cases = []
    for instance in pool:
        if instance.logic not in seen_logics:
            seen_logics.add(instance.logic)
            cases.append(instance)
    return cases[:MAX_INSTANCES]


CASES = _frontier_cases()


def _count(instance, *, pool=None, component_store=None):
    """One fresh-process-shaped exact:cc run (compile memo cleared, so
    every configuration pays the same compile)."""
    reset_compile_memo()
    problem = Problem.from_instance(instance)
    artifact = problem.compile()
    start = time.monotonic()
    result = count_compiled(artifact, timeout=BUDGET, pool=pool,
                            component_store=component_store)
    return result, time.monotonic() - start


@pytest.mark.parametrize("instance", CASES,
                         ids=lambda instance: instance.name)
def test_frontier_serial(instance):
    """Serial reference: exact, correct, within budget — on counts an
    order of magnitude beyond the exact.txt frontier."""
    result, wall = _count(instance)
    assert result.status is Status.OK
    assert result.exact
    assert result.estimate == instance.known_count
    assert result.estimate >= DIST_MIN_COUNT
    _serial[instance.name] = (result.estimate, wall)
    _frontier_rows.append([instance.name, instance.logic,
                           result.estimate, f"{wall:.3f}",
                           result.solver_calls])


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_scaling_curve(jobs):
    """1/2/4/8 process workers: bit-identical counts (gated), walls
    recorded for the curve."""
    assert _serial, "serial frontier runs first"
    pool = ExecutionPool(jobs=jobs, backend="process")
    walls = []
    for instance in CASES:
        result, wall = _count(instance, pool=pool)
        serial_count, _serial_wall = _serial[instance.name]
        assert result.estimate == serial_count, (
            f"{instance.name}: parallel({jobs}) diverged")
        walls.append(wall)
    _scaling[jobs] = walls


def test_shared_store_cold_then_warm(tmp_path_factory):
    """One shared store across the whole frontier set: the cold pass
    (parallel, so the workers themselves flush) populates it, the warm
    pass must hit it — with bit-identical counts."""
    assert _serial, "serial frontier runs first"
    store_path = str(tmp_path_factory.mktemp("dist") / "components.sqlite")
    pool = ExecutionPool(jobs=2, backend="process")
    for instance in CASES:
        reset_compile_memo()
        artifact = Problem.from_instance(instance).compile()
        start = time.monotonic()
        cold = count_compiled(artifact, timeout=BUDGET, pool=pool,
                              component_store=store_path)
        cold_wall = time.monotonic() - start
        start = time.monotonic()
        warm = count_compiled(artifact, timeout=BUDGET,
                              component_store=store_path)
        warm_wall = time.monotonic() - start
        serial_count, _wall = _serial[instance.name]
        assert cold.estimate == warm.estimate == serial_count
        # hit rate of the warm pass: store hits per cache consult
        detail = dict(part.split("=", 1)
                      for part in warm.detail.split()
                      if "=" in part)
        hits = int(detail.get("store_hits", 0))
        consults = (hits + int(detail.get("cache_hits", 0))
                    + int(detail.get("cache_entries", 0)))
        rate = hits / consults if consults else 0.0
        assert hits > 0, f"{instance.name}: warm run never hit the store"
        _store_hit_rates.append(rate)
        _store_rows.append([instance.name, f"{cold_wall:.3f}",
                            f"{warm_wall:.3f}", hits, f"{rate:.2f}"])
    with sqlite3.connect(store_path) as conn:
        (rows,) = conn.execute("SELECT COUNT(*) FROM components").fetchone()
    assert rows > 0


def test_distributed_report(results_dir):
    assert _frontier_rows and _scaling and _store_rows, \
        "workload benches run first"
    frontier_table = format_table(
        ["instance", "logic", "count", "serial s", "decisions"],
        _frontier_rows,
        title=(f"Distributed frontier (counts >= {DIST_MIN_COUNT}, "
               f"{'smoke, ' if SMOKE else ''}budget {BUDGET:.0f}s): "
               "10-100x beyond bench_results/exact.txt"))
    scaling_rows = [[jobs, f"{median(walls):.3f}",
                     f"{max(walls):.3f}"]
                    for jobs, walls in sorted(_scaling.items())]
    scaling_table = format_table(
        ["workers", "median s", "max s"], scaling_rows,
        title=("Scaling curve (process backend, bit-identity gated, "
               "wall-clock informational)"))
    store_table = format_table(
        ["instance", "cold s", "warm s", "store hits", "hit rate"],
        _store_rows,
        title="Shared component store: cold pass populates, warm pass hits")
    summary = (
        f"{len(_frontier_rows)} frontier instances solved exactly "
        f"(counts {min(row[2] for row in _frontier_rows)}-"
        f"{max(row[2] for row in _frontier_rows)}); all parallel "
        f"counts bit-identical at {sorted(_scaling)} workers; warm "
        f"store hit rate median "
        f"{median(_store_hit_rates):.2f}")
    emit(results_dir, "distributed.txt",
         frontier_table + "\n" + scaling_table + "\n" + store_table
         + "\n" + summary)
    emit_json(results_dir, "distributed", {
        "smoke": SMOKE,
        "frontier_instances": len(_frontier_rows),
        "frontier_min_count": min(row[2] for row in _frontier_rows),
        "frontier_max_count": max(row[2] for row in _frontier_rows),
        "scaling_median_s": {str(jobs): round(median(walls), 4)
                             for jobs, walls in _scaling.items()},
        "store_hit_rate_median": round(median(_store_hit_rates), 3),
        "store_instances": len(_store_rows),
    })
    # Acceptance gates: >= 2 instances beyond the exact.txt range
    # solved, every parallel count bit-identical (asserted above), the
    # warm store actually hit.  Wall-clock ratios are never gated — on
    # loaded CI runners they carry no signal.
    assert len(_frontier_rows) >= 2
    assert median(_store_hit_rates) > 0
