"""The compile-once pipeline, measured.

* **compile-once vs re-blast** — the workload every matrix, batch and
  portfolio run repeats: counting the same problem several times in one
  process.  The cold leg clears the per-process compile memo before
  every count (every run pays preprocessing, Tseitin blasting and
  simplification); the warm leg compiles once and clones the snapshot
  per run.
* **clause DB sizes** — the raw bit-blasted CNF (``stages=()``) against
  the simplified artifact.

Contract: estimates are bit-identical across both legs.  The artifact
(``bench_results/compile.txt``) records sizes, times and the warm leg's
wall-clock win, which is reported but not gated: wall-clock is measured
end to end by ``perfbench/``.
"""

import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.benchgen.suite import build_suite
from repro.compile import compile_counters, reset_compile_memo
from repro.core import PactConfig, pact_count
from repro.harness.report import format_table
from repro.utils.stats import median

SEED = 11
TIMEOUT = 120
NOISE_FLOOR = 0.02
_rows = []
_speedups = []
_exact_speedups = []
_clause_rows = []


def _cases():
    """Two workload sets.

    *exact* — small projected spaces (width 6): pact takes the
    exact-count path, so build cost is a large share of every count and
    compile-once shows its full effect (repeated counting is the
    matrix/batch/portfolio workload).
    *hash* — saturated spaces (width 14): iterations dominate, the win
    is smaller but must not regress.
    """
    cases = []
    for tag, width, iterations, repeats in (("exact", 6, 1, 10),
                                            ("hash", 14, 3, 3)):
        for instance in build_suite(per_logic=1, base_seed=3,
                                    widths=(width,)):
            cases.append((f"{tag}:{instance.name}", tag, iterations,
                          repeats, instance.assertions,
                          instance.projection))
    return cases


def _run(assertions, projection, iterations):
    config = PactConfig(family="xor", seed=SEED,
                        iteration_override=iterations, timeout=TIMEOUT)
    return pact_count(list(assertions), list(projection), config)


def _leg(assertions, projection, iterations, repeats, cold):
    """``repeats`` counts; ``cold`` clears the compile memo per count
    (the whole compile pipeline runs on every count)."""
    reset_compile_memo()
    results = []
    start = time.monotonic()
    for _ in range(repeats):
        if cold:
            reset_compile_memo()
        results.append(_run(assertions, projection, iterations))
    wall = time.monotonic() - start
    return results, wall


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_compile_once_vs_reblast(benchmark, case):
    name, tag, iterations, repeats, assertions, projection = case

    def all_legs():
        cold = _leg(assertions, projection, iterations, repeats,
                    cold=True)
        warm = _leg(assertions, projection, iterations, repeats,
                    cold=False)
        return cold, warm

    (cold, cold_wall), (warm, warm_wall) = (
        benchmark.pedantic(all_legs, rounds=1, iterations=1))

    # one compile per problem in the warm leg
    builds = compile_counters()["builds"]
    assert builds == 1, f"warm leg compiled {builds} times"

    # the determinism contract: both legs, bit-identical estimates
    for leg in (cold, warm):
        assert all(result.solved for result in leg)
        assert [r.estimates for r in leg] == [cold[0].estimates] * repeats

    speedup = cold_wall / max(warm_wall, 1e-9)
    measured = cold_wall >= NOISE_FLOOR
    if measured:
        _speedups.append(speedup)
        if tag == "exact":
            _exact_speedups.append(speedup)
    _rows.append([
        name, f"{cold_wall:.3f}", f"{warm_wall:.3f}",
        f"{speedup:.2f}x" + ("" if measured else " (noise)"),
    ])


def test_simplification_shrinks_clause_db():
    from repro.compile import compile_problem
    for instance in build_suite(per_logic=1, base_seed=3, widths=(12,)):
        on = compile_problem(instance.assertions, instance.projection,
                             digest="bench")
        off = compile_problem(instance.assertions, instance.projection,
                              stages=(), digest="bench")
        total_on = on.stats.clauses + len(on.snapshot.units)
        total_off = off.stats.clauses + len(off.snapshot.units)
        _clause_rows.append([
            instance.logic, off.stats.clauses, on.stats.clauses,
            f"{100 * (1 - total_on / max(1, total_off)):.0f}%",
            on.stats.aux_eliminated, on.stats.literals_substituted,
        ])
        assert total_on <= total_off


def test_compile_report(results_dir):
    assert _rows and _clause_rows, "per-instance benches must run first"
    table = format_table(
        ["workload:instance", "re-blast s", "compiled s", "speedup"],
        _rows,
        title=(f"Compile-once vs re-blast per count (repeated counts "
               f"per problem, seed={SEED}); estimates bit-identical "
               "on every leg"))
    clause_table = format_table(
        ["logic", "clauses (raw)", "clauses (simplified)",
         "shrink", "aux eliminated", "lits substituted"],
        _clause_rows,
        title="Count-preserving simplification: clause DB sizes")
    summary = (
        f"median compile-once speedup: {median(_speedups):.2f}x over "
        f"{len(_speedups)} measured instances "
        f"({median(_exact_speedups):.2f}x on the exact-path workload, "
        f"{len(_exact_speedups)} instances)")
    emit(results_dir, "compile.txt",
         table + "\n" + clause_table + "\n" + summary)
    emit_json(results_dir, "compile", {
        "median_speedup": round(median(_speedups), 3),
        "median_exact_speedup": round(median(_exact_speedups), 3),
        "measured_instances": len(_speedups),
    })
