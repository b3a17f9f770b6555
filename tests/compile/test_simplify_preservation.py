"""Property test: every simplify stage preserves the projected model
count, on small random instances across all six benchgen logics.

Ground truth is brute force: benchgen computes each instance's exact
projected count analytically at generation time (a Python predicate
enumerated over the whole projected domain), independently of the
solver stack.  For every stage prefix of the pipeline —

    ()  ->  (units)  ->  (units, equiv)  ->  (units, equiv, bve)

— compiling with exactly those stages and enumerating the projected
models of the reconstructed solver must reproduce that count.  The
``support`` stage is analysis-only; the projected count over the
*minimised* support must still equal the full count (dropped bits are
determined by the remaining ones).  pact's per-iteration estimates on
the default artifact must equal those on the unsimplified one
(``stages=()``) for every hash family.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen.generators import GENERATORS
from repro.compile import compile_problem, memo
from repro.compile.simplify import STAGES
from repro.core import PactConfig, pact_count
from repro.core.cells import CallCounter, saturating_count
from repro.smt.solver import SmtSolver
from repro.utils.deadline import Deadline

BIG = 10 ** 9
LOGICS = sorted(GENERATORS)
PREFIXES = [STAGES[:length] for length in range(len(STAGES) + 1)]


def _instance(logic, seed):
    return GENERATORS[logic](seed, width=4)


def _projected_count(artifact):
    solver = SmtSolver.from_compiled(artifact)
    return saturating_count(solver, list(artifact.projection), BIG,
                            Deadline(60), CallCounter())


@settings(max_examples=12, deadline=None)
@given(logic=st.sampled_from(LOGICS), seed=st.integers(0, 10 ** 6))
def test_each_stage_prefix_preserves_projected_count(logic, seed):
    instance = _instance(logic, seed)
    for stages in PREFIXES:
        artifact = compile_problem(
            instance.assertions, instance.projection, stages=stages,
            digest="prop")
        assert _projected_count(artifact) == instance.known_count, (
            f"{logic} seed={seed} stages={stages}")


@settings(max_examples=8, deadline=None)
@given(logic=st.sampled_from(LOGICS), seed=st.integers(0, 10 ** 6))
def test_minimised_support_preserves_count_on_cnf(logic, seed):
    """Counting over the minimised support bits (what ``c p show``
    exports) agrees with counting over the full projection whenever the
    CNF alone decides the formula (no lazy LRA atoms)."""
    instance = _instance(logic, seed)
    artifact = compile_problem(instance.assertions, instance.projection,
                               digest="prop")
    if artifact.atoms:
        return  # CNF alone under-constrains; export carries a warning
    solver = SmtSolver.from_compiled(artifact)
    flat = artifact.flat_bits
    support_vars = [abs(flat[position]) for position in artifact.support]
    sat = solver.sat
    count = 0
    sat.push()
    try:
        while sat.solve(deadline=Deadline(60)):
            count += 1
            assert count <= BIG
            blocking = [-var if sat.model_value(var) else var
                        for var in support_vars]
            if not blocking or not sat.add_clause(blocking):
                break
        assert count == instance.known_count
    finally:
        sat.pop()



@pytest.mark.parametrize("family", ("xor", "prime", "shift"))
def test_estimates_match_the_unsimplified_artifact(family, monkeypatch):
    config = PactConfig(family=family, seed=11, iteration_override=3)
    for logic in ("QF_BVFP", "QF_ABV"):
        instance = GENERATORS[logic](5, width=9)
        assertions, projection = instance.assertions, instance.projection
        with monkeypatch.context() as patch:
            # The memo compiles this digest unsimplified, so the
            # counter solves on the ``stages=()`` artifact.
            patch.setattr(memo, "compile_problem",
                          functools.partial(compile_problem, stages=()))
            unsimplified = pact_count(assertions, projection, config,
                                      digest=f"unsimplified-{logic}")
        default = pact_count(assertions, projection, config)
        assert unsimplified.estimates == default.estimates, logic
