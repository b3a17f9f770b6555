#!/usr/bin/env python3
"""Quantification of information flow (QIF).

Paper section I-A, fourth application (after Phan & Malacaria): how many
bits of a secret leak through a program's public output?  The channel
capacity of a deterministic program is log2 of the number of *distinct
outputs*, which is exactly a projected model count: project the
input-output relation onto the output variable.

Program: a password checker that (badly) returns a diagnostic code
derived from the secret when authentication fails.

    def check(secret: u8, guess: u8) -> u8:
        if secret == guess:
            return 0xFF                      # success marker
        return (secret >> 4) | (guess & 0x30)  # leaky diagnostics

Run:  python examples/information_flow.py
"""

import math

from repro import CountRequest, Problem, Session
from repro.smt import (
    Equals, Ite, bv_and, bv_lshr, bv_or, bv_val, bv_var,
)


def build_channel():
    secret = bv_var("secret", 8)
    guess = bv_var("guess", 8)
    output = bv_var("output", 8)
    leaky = bv_or(bv_lshr(secret, bv_val(4, 8)),
                  bv_and(guess, bv_val(0x30, 8)))
    relation = Equals(
        output, Ite(Equals(secret, guess), bv_val(0xFF, 8), leaky))
    return [relation], [output]


def main() -> None:
    assertions, projection = build_channel()
    problem = Problem.from_terms(assertions, projection,
                                 name="leaky_checker")
    print("Information-flow quantification of a leaky password checker")

    with Session() as session:
        exact = session.count(problem, CountRequest(counter="enum",
                                                    timeout=300))
        if exact.solved:
            print(f"  distinct outputs (enum)   : {exact.estimate}")

        result = session.count(
            problem, CountRequest(counter="pact:xor", epsilon=0.8,
                                  delta=0.2, seed=9))
    leak_bits = math.log2(result.estimate) if result.estimate else 0.0
    print(f"  pact:xor estimate         : {result.estimate} outputs "
          f"({result.time_seconds:.2f}s)")
    print(f"  channel capacity          : ~{leak_bits:.2f} bits leaked "
          "per run (log2 of the output count)")
    print("\nA non-leaky checker would have 2 outputs (1 bit); every "
          "additional output multiplies the attacker's per-query "
          "information.")


if __name__ == "__main__":
    main()
