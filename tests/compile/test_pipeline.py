"""The staged compile pipeline: artifact structure, reconstruction and
DIMACS export."""

import pytest

from repro.benchgen.suite import build_suite
from repro.compile import STAGES, compile_problem
from repro.core.cells import CallCounter, saturating_count
from repro.core.enumerate import exact_count
from repro.sat.dimacs import load_solver, parse_dimacs_document
from repro.smt.solver import SmtSolver
from repro.smt.terms import (
    bv_ult, bv_val, bv_var, real_lt, real_val, real_var,
)
from repro.utils.deadline import Deadline

BIG = 10 ** 9


def _instances(width=5):
    return build_suite(per_logic=1, base_seed=3, widths=(width,))


def _exact_via(artifact):
    solver = SmtSolver.from_compiled(artifact)
    return saturating_count(solver, list(artifact.projection), BIG,
                            Deadline(60), CallCounter())


class TestCountingEquivalence:
    @pytest.mark.parametrize("instance", _instances(),
                             ids=lambda inst: inst.logic)
    def test_compiled_counts_match_known(self, instance):
        for stages in (STAGES, ()):
            artifact = compile_problem(instance.assertions,
                                       instance.projection,
                                       stages=stages, digest="t")
            assert _exact_via(artifact) == instance.known_count

    def test_matches_legacy_direct_solver(self):
        x = bv_var("cpl_x", 6)
        assertions = [bv_ult(x, bv_val(41, 6))]
        artifact = compile_problem(assertions, [x], digest="t")
        legacy = exact_count(assertions, [x]).estimate
        assert _exact_via(artifact) == legacy == 41

    def test_variable_numbering_stable_across_modes(self):
        # Simplification may only remove/rewrite clauses, never
        # deallocate variables: later allocations (hash gates, blocking
        # frames) must number identically with or without it.
        instance = _instances()[0]
        on = compile_problem(instance.assertions, instance.projection,
                             digest="t")
        off = compile_problem(instance.assertions, instance.projection,
                              stages=(), digest="t")
        assert on.num_vars == off.num_vars
        assert on.projection_bits == off.projection_bits
        assert on.true_lit == off.true_lit


class TestArtifactStructure:
    def test_flat_bits_align_with_projection(self):
        instance = _instances()[0]
        artifact = compile_problem(instance.assertions,
                                   instance.projection, digest="t")
        widths = [var.sort.width for var in artifact.projection]
        assert len(artifact.flat_bits) == sum(widths)
        assert all(len(bits) == width for bits, width
                   in zip(artifact.projection_bits, widths))

    def test_support_subset_of_positions(self):
        for instance in _instances():
            artifact = compile_problem(instance.assertions,
                                       instance.projection, digest="t")
            positions = set(range(len(artifact.flat_bits)))
            assert set(artifact.support) <= positions
            # unsimplified artifacts report the full support
            raw = compile_problem(instance.assertions,
                                  instance.projection, stages=(),
                                  digest="t")
            assert list(raw.support) == sorted(positions)

    def test_lra_atoms_registered_in_reconstruction(self):
        x = bv_var("cpl_lx", 4)
        r = real_var("cpl_lr")
        assertions = [bv_ult(x, bv_val(9, 4)), real_lt(r, real_val(2))]
        artifact = compile_problem(assertions, [x], digest="t")
        assert artifact.atoms
        solver = SmtSolver.from_compiled(artifact)
        assert solver.lra.has_atoms()
        assert saturating_count(solver, [x], BIG, Deadline(60),
                                CallCounter()) == 9


class TestDimacsExport:
    def test_round_trips_and_counts(self):
        instance = _instances()[0]
        artifact = compile_problem(instance.assertions,
                                   instance.projection, digest="t")
        text = artifact.to_dimacs()
        document = parse_dimacs_document(text)
        assert document.num_vars == artifact.num_vars
        assert document.show  # c p show lines present
        assert all(1 <= var <= document.num_vars
                   for var in document.show)
        # counting over the minimised support equals the known count
        solver = load_solver(text)
        count = 0
        while solver.solve(deadline=Deadline(60)):
            count += 1
            assert count <= BIG
            blocking = [-var if solver.model_value(var) else var
                        for var in document.show]
            if not solver.add_clause(blocking):
                break
        assert count == instance.known_count
