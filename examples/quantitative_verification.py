#!/usr/bin/env python3
"""Quantitative software verification over floating point (QF_BVFP).

Paper section I-A, third application (after Teuber & Weigl): a program
with an assertion is unrolled into SSA form as an SMT formula; counting
the *inputs* that reach the assertion failure quantifies the bug instead
of merely witnessing it.

Program under analysis (sensor scaling, FP(3, 4) arithmetic to keep the
circuit small):

    def convert(raw: u8) -> None:
        x = to_fixed(raw)         # reinterpret low 7 bits as FP(3,4)
        y = x * 1.5               # calibration gain  (fp.mul, RNE)
        z = y + y                 # accumulate two channels (fp.add)
        assert not (z >= 8.0)     # must stay under the DAC limit

The projected count over ``raw`` is the number of 8-bit inputs that
violate the assertion.

Run:  python examples/quantitative_verification.py
"""

from repro import CountRequest, Problem, Session
from repro.smt import (
    bv_extract, bv_val, bv_var, fp_add, fp_from_bv, fp_geq,
    fp_is_nan, fp_mul, Not, And,
)
from repro.smt.theories.fp.softfloat import FpFormat, SoftFloat

EB, SB = 3, 4
WIDTH = 1 + EB + SB - 1  # 7 packed bits
SF = SoftFloat(FpFormat(EB, SB))


def fp_const(value):
    return fp_from_bv(bv_val(SF.from_fraction(value), WIDTH), EB, SB)


def build_ssa():
    raw = bv_var("raw", 8)                       # program input
    x = fp_from_bv(bv_extract(raw, WIDTH - 1, 0), EB, SB)
    y = fp_mul(x, fp_const("3/2"))               # y = x * 1.5
    z = fp_add(y, y)                             # z = y + y
    # Assertion failure: z >= 8.0 (and arithmetic must be well-defined).
    failing = And(Not(fp_is_nan(z)), fp_geq(z, fp_const(8)))
    return [failing], [raw]


def ground_truth() -> int:
    """Reference count straight from the softfloat semantics."""
    gain = SF.from_fraction("3/2")
    count = 0
    for raw in range(256):
        x = raw & ((1 << WIDTH) - 1)
        y = SF.mul(x, gain)
        z = SF.add(y, y)
        if not SF.is_nan(z) and SF.leq(SF.from_fraction(8), z):
            count += 1
    return count


def main() -> None:
    assertions, projection = build_ssa()
    problem = Problem.from_terms(assertions, projection,
                                 name="fp_sensor_scaling")
    truth = ground_truth()
    print("Quantitative verification of an FP sensor-scaling routine")
    print(f"  softfloat ground truth      : {truth} failing inputs / 256")

    with Session() as session:
        exact = session.count(problem, CountRequest(counter="enum",
                                                    timeout=300))
        if exact.solved:
            print(f"  enum through the solver     : {exact.estimate}")
            assert exact.estimate == truth, \
                "solver disagrees with softfloat!"

        result = session.count(
            problem, CountRequest(counter="pact:xor", epsilon=0.8,
                                  delta=0.2, seed=3))
    print(f"  pact:xor estimate           : {result.estimate} "
          f"({result.solver_calls} calls, {result.time_seconds:.2f}s)")
    print(f"  failure probability         : ~{result.estimate / 256:.1%} "
          "of uniformly random inputs")


if __name__ == "__main__":
    main()
