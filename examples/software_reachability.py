#!/usr/bin/env python3
"""Counting violating paths through a control-flow graph.

Paper section I-A, second application: encode a CFG of critical software
as an SMT formula over Boolean reachability indicators (discrete) plus
continuous program quantities; the count projected onto the indicator
bits is the number of violating paths.

The CFG here is a diamond ladder (each stage branches then re-joins) over
a continuous resource budget: every taken branch consumes a
stage-dependent amount of a real-valued budget, and a path is *violating*
if it can reach the sink with the budget exhausted past the red line.

Run:  python examples/software_reachability.py
"""

from repro import CountRequest, Problem, Session
from repro.smt import (
    Equals, Implies, bv_extract, bv_val, bv_var, real_add, real_lt,
    real_val, real_var,
)

STAGES = 8           # diamonds in the ladder
RED_LINE = 20        # budget units that constitute a violation
EXPENSIVE = 4        # cost of the expensive branch of each stage
CHEAP = 1            # cost of the cheap branch


def build_cfg_model():
    # One projection bit per stage: which branch the path takes.  Packing
    # them in a single bit-vector makes the projection set explicit.
    path = bv_var("path", STAGES)
    costs = [real_var(f"cost_{i}") for i in range(STAGES + 1)]

    assertions = [Equals(costs[0], real_val(0))]
    for stage in range(STAGES):
        took_expensive = Equals(bv_extract(path, stage, stage),
                                bv_val(1, 1))
        # cost_{i+1} = cost_i + (EXPENSIVE | CHEAP), by branch.
        assertions.append(Implies(
            took_expensive,
            Equals(costs[stage + 1],
                   real_add(costs[stage], real_val(EXPENSIVE)))))
        assertions.append(Implies(
            ~took_expensive,
            Equals(costs[stage + 1],
                   real_add(costs[stage], real_val(CHEAP)))))
    # Violation: the sink is reached past the red line.
    assertions.append(real_lt(real_val(RED_LINE), costs[STAGES]))
    return assertions, [path]


def main() -> None:
    assertions, projection = build_cfg_model()
    print(f"CFG path counting: {STAGES} diamonds, red line at "
          f"{RED_LINE} budget units")

    # Closed form: a path with k expensive branches costs
    # 4k + (STAGES-k); violating iff 3k + STAGES > RED_LINE.
    from math import comb
    expected = sum(comb(STAGES, k) for k in range(STAGES + 1)
                   if 3 * k + STAGES > RED_LINE)
    print(f"  closed-form violating paths: {expected}")

    problem = Problem.from_terms(assertions, projection,
                                 name="cfg_paths")
    with Session() as session:
        exact = session.count(problem, CountRequest(counter="enum",
                                                    timeout=300))
        if exact.solved:
            print(f"  enum (exact)               : {exact.estimate}")

        result = session.count(
            problem, CountRequest(counter="pact:xor", epsilon=0.8,
                                  delta=0.2, seed=11))
    print(f"  pact:xor estimate          : {result.estimate} "
          f"({result.solver_calls} calls, {result.time_seconds:.2f}s)")
    print("\nEach counted assignment is one CFG path (a branch choice "
          "per diamond) that can exhaust the budget past the red line "
          "for SOME admissible cost evolution.")


if __name__ == "__main__":
    main()
