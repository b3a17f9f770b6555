"""CI regression smoke: solver_calls must not creep up.

Runs one small, fully deterministic pact instance per hash family
(fixed seed, fixed iteration count; cell counts are exact and every
random draw is a pure function of the seed tree, so ``solver_calls`` is
reproducible across machines and Python versions) and fails if any
family exceeds its recorded baseline in
``bench_results/solver_calls_baseline.json``.

Together the rows exercise every driver of the unified propagation
kernel (``repro.sat.kernel``) on the same smoke formula:

* the pact family rows and the ``cdm`` row drive the CDCL driver
  (watched literals, XOR rows, push/pop ladder frames);
* the ``xor:j2`` row runs the ``xor`` row's formula fanned out over a
  2-worker process pool, the one backend that splits a count's
  iterations: two iteration chains, each on its own cloned solver, so
  its columns are a pure function of (problem, parameters, ``jobs``) —
  and its estimate is gated against the serial row's (a thread pool
  runs the serial chain and would repeat the ``xor`` row);
* the ``cdm:j2`` row runs the ``cdm`` row's formula fanned out over
  a 2-worker process pool, so CDM's chains run the same counter method
  as its serial loop; its estimate is gated against the ``cdm`` row's;
* the ``enum`` row drives the CDCL driver's projected-model
  enumeration alone (no hash frames, one block per model), and its
  count must stay exact;
* the ``xor:bvfp`` row runs pact's xor family on a generated QF_BVFP
  instance, whose compiled formula keeps variables outside the
  projection: its kernel columns show how much search the compile
  simplifier leaves over those variables (the smoke formula above has
  none);
* the ``exact:cc`` row drives the component-splitting DPLL driver —
  its ``solver_calls`` are DPLL decisions, a pure function of the
  clause DB plus the shared presolve lemmas, and its count must stay
  bit-exact;
* the ``exact:cc:par`` row counts the same formula over a 2-worker
  process pool, the one backend that splits an exact count: the
  top-level component is dispatched to a worker, whose decisions and
  kernel counters the pool ships home;
* the ``exact:cc:lra`` row runs the same driver on a generated
  QF_BVFPLRA instance, so the eager LRA theory closure's blocking
  clauses feed the search, and its count must equal the generator's.

A kernel change that alters any driver's search shows up here as a
changed estimate (determinism break — hard fail) or a solver-call
regression.  Each row also records the kernel's ``propagations``,
``conflicts`` and ``decisions`` for that run (per-row deltas of the
process-wide ``KernelTelemetry``; on the ``exact:cc`` rows decisions
are the DPLL decisions ``solver_calls`` already counts), gated the same
way as ``solver_calls``: all are pure functions of the search, so any
increase is a real regression, not noise.

Regenerate the baseline after an intentional search/schedule change:

    PYTHONPATH=src python benchmarks/check_solver_calls.py --update
"""

import json
import pathlib
import sys

from repro.benchgen.generators import GENERATORS
from repro.core import PactConfig, cdm_count, exact_count, pact_count
from repro.count_exact import cc_count
from repro.engine.pool import ExecutionPool
from repro.sat.kernel import TELEMETRY
from repro.smt import bv_ult, bv_val, bv_var

BASELINE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                 / "bench_results" / "solver_calls_baseline.json")
WIDTH = 10
SEED = 9
ITERATIONS = 3
FAMILIES = ("xor", "prime", "shift")
# The q-fold self-composition multiplies formula size by the copy
# count, so the cdm row gets a narrower smoke width to stay fast.
CDM_WIDTH = 6
CDM_ITERATIONS = 2
# A generated instance with existential (non-projection) variables;
# the exact:cc:lra row takes its QF_BVFPLRA sibling at the same width.
BVFP_WIDTH = 8


KERNEL_COLUMNS = ("propagations", "conflicts", "decisions")


def _kernel_delta(before: dict, prefix: str) -> dict:
    """Per-run kernel-counter deltas for one telemetry prefix."""
    after = TELEMETRY.snapshot()
    return {key: after.get(f"{prefix}{key}", 0)
            - before.get(f"{prefix}{key}", 0)
            for key in KERNEL_COLUMNS}


def measure() -> dict:
    results = {}
    bound = (1 << WIDTH) - (1 << (WIDTH - 3))
    for family in FAMILIES:
        x = bv_var(f"ci_{family}", WIDTH)
        config = PactConfig(family=family, seed=SEED,
                            iteration_override=ITERATIONS, timeout=300)
        before = TELEMETRY.snapshot()
        result = pact_count([bv_ult(x, bv_val(bound, WIDTH))], [x],
                            config)
        assert result.solved, f"{family}: smoke instance did not solve"
        results[family] = {"solver_calls": result.solver_calls,
                           "estimate": result.estimate,
                           **_kernel_delta(before, "pact.")}
    # The fan-out row: the xor row's formula, its iterations split into
    # per-worker chains (iterations 0 and 2 on one solver, 1 on the
    # other) over worker processes; the pool ships their kernel
    # counters home.
    x = bv_var("ci_xor_j2", WIDTH)
    config = PactConfig(family="xor", seed=SEED,
                        iteration_override=ITERATIONS, timeout=300)
    before = TELEMETRY.snapshot()
    fanned = pact_count([bv_ult(x, bv_val(bound, WIDTH))], [x], config,
                        pool=ExecutionPool(jobs=2, backend="process"))
    assert fanned.solved, "xor:j2: smoke instance did not solve"
    assert fanned.estimate == results["xor"]["estimate"], (
        f"xor:j2 diverged from serial: {fanned.estimate} != "
        f"{results['xor']['estimate']}")
    results["xor:j2"] = {"solver_calls": fanned.solver_calls,
                         "estimate": fanned.estimate,
                         **_kernel_delta(before, "pact.")}
    instance = GENERATORS["QF_BVFP"](SEED, width=BVFP_WIDTH)
    config = PactConfig(family="xor", seed=SEED,
                        iteration_override=ITERATIONS, timeout=300)
    before = TELEMETRY.snapshot()
    result = pact_count(instance.assertions, instance.projection, config)
    assert result.solved, "xor:bvfp: instance did not solve"
    results["xor:bvfp"] = {"solver_calls": result.solver_calls,
                           "estimate": result.estimate,
                           **_kernel_delta(before, "pact.")}
    cdm_bound = (1 << CDM_WIDTH) - (1 << (CDM_WIDTH - 3))
    x = bv_var("ci_cdm", CDM_WIDTH)
    before = TELEMETRY.snapshot()
    cdm = cdm_count([bv_ult(x, bv_val(cdm_bound, CDM_WIDTH))], [x],
                    seed=SEED, iteration_override=CDM_ITERATIONS,
                    timeout=300)
    assert cdm.solved, "cdm: smoke instance did not solve"
    results["cdm"] = {"solver_calls": cdm.solver_calls,
                      "estimate": cdm.estimate,
                      **_kernel_delta(before, "cdm.")}
    # CDM's fan-out row: the cdm row's formula, its two repetitions run
    # as one chain per worker process.
    x = bv_var("ci_cdm_j2", CDM_WIDTH)
    before = TELEMETRY.snapshot()
    cdm_fanned = cdm_count([bv_ult(x, bv_val(cdm_bound, CDM_WIDTH))], [x],
                           seed=SEED, iteration_override=CDM_ITERATIONS,
                           timeout=300,
                           pool=ExecutionPool(jobs=2, backend="process"))
    assert cdm_fanned.solved, "cdm:j2: smoke instance did not solve"
    assert cdm_fanned.estimate == cdm.estimate, (
        f"cdm:j2 diverged from serial: {cdm_fanned.estimate} != "
        f"{cdm.estimate}")
    results["cdm:j2"] = {"solver_calls": cdm_fanned.solver_calls,
                         "estimate": cdm_fanned.estimate,
                         **_kernel_delta(before, "cdm.")}
    x = bv_var("ci_enum", WIDTH)
    before = TELEMETRY.snapshot()
    enum = exact_count([bv_ult(x, bv_val(bound, WIDTH))], [x], timeout=300)
    assert enum.solved, "enum: smoke instance did not solve"
    assert enum.estimate == bound, f"enum: {enum.estimate} != {bound}"
    results["enum"] = {"solver_calls": enum.solver_calls,
                       "estimate": enum.estimate,
                       **_kernel_delta(before, "enum.")}
    x = bv_var("ci_exact_cc", WIDTH)
    before = TELEMETRY.snapshot()
    exact = cc_count([bv_ult(x, bv_val(bound, WIDTH))], [x], timeout=300)
    assert exact.solved, "exact:cc: smoke instance did not solve"
    assert exact.estimate == bound, f"exact:cc: {exact.estimate} != {bound}"
    results["exact:cc"] = {"solver_calls": exact.solver_calls,
                           "estimate": exact.estimate,
                           **_kernel_delta(before, "cc.")}
    # The component-parallel row: same smoke formula through a 2-worker
    # process pool, the one backend that splits an exact count.  Worker
    # decisions merge into the parent's totals and the pool ships the
    # workers' telemetry home, so every column is as deterministic as
    # the serial row — and the estimate is gated against it
    # (bit-identity is the tentpole invariant).
    x = bv_var("ci_exact_cc_par", WIDTH)
    before = TELEMETRY.snapshot()
    parallel = cc_count([bv_ult(x, bv_val(bound, WIDTH))], [x],
                        timeout=300,
                        pool=ExecutionPool(jobs=2, backend="process"))
    assert parallel.solved, "exact:cc:par: smoke instance did not solve"
    assert parallel.estimate == exact.estimate == bound, (
        f"exact:cc:par diverged from serial: "
        f"{parallel.estimate} != {exact.estimate}")
    results["exact:cc:par"] = {"solver_calls": parallel.solver_calls,
                               "estimate": parallel.estimate,
                               **_kernel_delta(before, "cc.")}
    instance = GENERATORS["QF_BVFPLRA"](SEED, width=BVFP_WIDTH)
    before = TELEMETRY.snapshot()
    lra = cc_count(instance.assertions, instance.projection, timeout=300)
    assert lra.solved, "exact:cc:lra: instance did not solve"
    assert lra.estimate == instance.known_count, (
        f"exact:cc:lra: {lra.estimate} != {instance.known_count}")
    results["exact:cc:lra"] = {"solver_calls": lra.solver_calls,
                               "estimate": lra.estimate,
                               **_kernel_delta(before, "cc.")}
    return results


def main() -> int:
    measured = measure()
    if "--update" in sys.argv:
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    failed = False
    keys = list(FAMILIES) + ["xor:j2", "xor:bvfp", "cdm", "cdm:j2", "enum",
                             "exact:cc", "exact:cc:par", "exact:cc:lra"]
    for family in keys:
        got = measured[family]
        want = baseline[family]
        note = ""
        if got["estimate"] != want["estimate"]:
            note = "  ESTIMATE CHANGED (determinism regression!)"
            failed = True
        elif got["solver_calls"] > want["solver_calls"]:
            note = "  REGRESSION (more oracle calls than baseline)"
            failed = True
        else:
            # Kernel-counter gates; baselines written before the
            # columns existed simply skip them.
            for column in KERNEL_COLUMNS:
                if column in want and got[column] > want[column]:
                    note = f"  REGRESSION (more {column} than baseline)"
                    failed = True
        print(f"{family:14s} solver_calls {got['solver_calls']:5d} "
              f"(baseline {want['solver_calls']:5d})  "
              f"propagations {got['propagations']:6d} "
              f"(baseline {want.get('propagations', '-'):>6}) "
              f"decisions {got['decisions']:5d} "
              f"(baseline {want.get('decisions', '-'):>5}) "
              f"conflicts {got['conflicts']:4d}  "
              f"estimate {got['estimate']}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
