"""The exact component-caching counter: search, cache, closure, API."""

import random
import sys

import pytest

from repro.api import CountRequest, Problem, resolve
from repro.benchgen.generators import GENERATORS
from repro.compile import CompiledProblem, compile_problem
from repro.count_exact import (
    MAX_CLOSURE_ATOMS, cc_count, component_signature, count_compiled,
    count_snapshot, lra_closure, projection_occurrences,
)
from repro.errors import CounterError
from repro.sat.kernel import CdclDriver, ClauseDB, SatSnapshot, UNSET_V
from repro.smt import (
    And, Equals, Implies, bv_and, bv_ult, bv_val, bv_var, real_add,
    real_le, real_lt, real_mul, real_val, real_var,
)
from repro.smt.theories.lra.theory import LraTheory
from repro.smt.terms import bv_var as _bv_var
from repro.status import Status


class TestCounts:
    def test_interval(self):
        x = bv_var("cc_x", 8)
        result = cc_count([bv_ult(x, bv_val(77, 8))], [x])
        assert result.estimate == 77
        assert result.exact
        assert result.status is Status.OK

    def test_unsat(self):
        x = bv_var("cc_ux", 4)
        result = cc_count([bv_ult(x, bv_val(0, 4))], [x])
        assert result.estimate == 0
        assert result.exact

    def test_unconstrained_bits_are_free(self):
        # Only the low 2 bits are constrained; 6 bits are free doublers.
        x = bv_var("cc_fx", 8)
        result = cc_count(
            [Equals(bv_and(x, bv_val(0b11, 8)), bv_val(0b01, 8))], [x])
        assert result.estimate == 1 << 6
        assert "free_bits" in result.detail

    def test_projection_collapses_witnesses(self):
        x, y = bv_var("cc_px", 4), bv_var("cc_py", 4)
        result = cc_count([Equals(x, bv_and(y, bv_val(0b1100, 4)))], [x])
        assert result.estimate == 4

    def test_multi_variable_projection(self):
        x, y = bv_var("cc_mx", 3), bv_var("cc_my", 3)
        result = cc_count(
            [bv_ult(x, bv_val(3, 3)), bv_ult(y, bv_val(5, 3))], [x, y])
        assert result.estimate == 15

    def test_simplify_ab_is_bit_identical(self):
        x = bv_var("cc_ab", 9)
        assertions = [bv_ult(x, bv_val(397, 9))]
        on = cc_count(assertions, [x])
        off = count_compiled(compile_problem(assertions, [x], stages=()))
        assert on.estimate == off.estimate == 397

    def test_deterministic_stats(self):
        x = bv_var("cc_det", 10)
        assertions = [bv_ult(x, bv_val(700, 10))]
        first = cc_count(assertions, [x])
        second = cc_count(assertions, [x])
        assert first.estimate == second.estimate == 700
        assert first.solver_calls == second.solver_calls
        assert first.detail == second.detail

    def test_timeout_reports_timeout(self):
        x = bv_var("cc_to", 16)
        result = cc_count([bv_ult(x, bv_val(60_000, 16))], [x], timeout=0)
        assert result.status is Status.TIMEOUT
        assert result.estimate is None

    @pytest.mark.parametrize("projected", ["all", "first"])
    def test_deep_search_leaves_the_recursion_limit_alone(self, projected):
        """The search keeps its frames on an explicit stack: the chain
        (x_i or x_i+1) over 400 variables counts exactly under a
        recursion limit of the caller's depth + 100, and the limit
        stays where it was.  Projected on every bit the count is
        Fib(402), 400 branching steps deep; projected on x_1 alone it
        is 2, and the rest of the chain is 400 satisfiability steps
        deep."""
        num_vars = 400
        clauses = tuple((var, var + 1) for var in range(1, num_vars))
        snapshot = SatSnapshot(num_vars, clauses, (), (), ok=True)
        fib = [0, 1]
        while len(fib) <= num_vars + 2:
            fib.append(fib[-1] + fib[-2])
        projection, expected = {
            "all": (range(1, num_vars + 1), fib[num_vars + 2]),
            "first": ((1,), 2),
        }[projected]
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            result = count_snapshot(snapshot, projection)
            limit = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(saved)
        assert limit == depth + 100
        assert result.status is Status.OK
        assert result.estimate == expected


class TestLraClosure:
    def test_pruning_constraint_counts_exactly(self):
        # r > 7 always; bit0 -> r < 3: impossible, so bit0 = 0.
        x = bv_var("cc_lx", 4)
        r = real_var("cc_lr")
        bit0 = Equals(bv_and(x, bv_val(1, 4)), bv_val(1, 4))
        assertions = [real_lt(real_val(7), r),
                      Implies(bit0, real_lt(r, real_val(3)))]
        result = cc_count(assertions, [x])
        assert result.estimate == 8
        assert "closure=" in result.detail

    def test_witness_constraint_keeps_count(self):
        x = bv_var("cc_wx", 4)
        r1, r2 = real_var("cc_wr1"), real_var("cc_wr2")
        assertions = [bv_ult(x, bv_val(11, 4)),
                      And(real_lt(real_val(0), r1), real_lt(r1, r2))]
        result = cc_count(assertions, [x])
        assert result.estimate == 11

    def test_infeasible_unit_atoms_count_zero(self):
        # Both atoms are root units and no atom is open: the one vector
        # the units allow must still be checked and blocked.
        x = bv_var("cc_ux", 4)
        r = real_var("cc_ur")
        assertions = [bv_ult(x, bv_val(11, 4)), real_lt(real_val(0), r),
                      real_lt(r, real_val(0))]
        result = cc_count(assertions, [x])
        assert result.estimate == 0
        assert "closure=2 atoms/1 checks/1 clauses" in result.detail

    def test_closure_blocks_infeasible_vectors_only(self):
        r = real_var("cc_cr")
        atoms = []
        solver_atoms = [real_lt(real_val(5), r), real_lt(r, real_val(2))]
        for index, atom in enumerate(solver_atoms):
            atoms.append((atom, index + 1))
        stats = lra_closure(atoms)
        assert stats.atoms == 2
        # exactly one vector (both true: 5 < r < 2) is infeasible
        assert stats.infeasible == 1
        assert stats.clauses == [[-2, -1]]

    def test_closure_polls_the_deadline(self):
        from repro.errors import SolverTimeoutError
        from repro.utils.deadline import Deadline
        r = real_var("cc_dlr")
        atoms = [(real_lt(real_val(i), r), i + 1) for i in range(3)]
        with pytest.raises(SolverTimeoutError):
            lra_closure(atoms, deadline=Deadline(0))

    def test_closure_atom_cap(self):
        r = real_var("cc_capr")
        atoms = [(real_lt(real_val(i), r), i + 1)
                 for i in range(MAX_CLOSURE_ATOMS + 1)]
        with pytest.raises(CounterError, match=(
                f"at most {MAX_CLOSURE_ATOMS} open LRA atoms "
                f"\\(got {MAX_CLOSURE_ATOMS + 1}\\)")):
            lra_closure(atoms)

    def test_closure_cap_counts_open_atoms(self):
        # Past the cap in total, but 15 atoms are root units and only
        # two are open.
        r = real_var("cc_capur")
        atoms = [(real_lt(real_val(i), r), i + 1)
                 for i in range(MAX_CLOSURE_ATOMS + 1)]
        stats = lra_closure(atoms, units=tuple(range(1, 16)))
        assert stats.atoms == MAX_CLOSURE_ATOMS + 1
        assert stats.checks <= 2 ** 2

    def test_held_atoms_are_still_checked(self):
        # Units fixing 0 < r and r < 0: every vector they allow is
        # infeasible, and the first check's conflict clause is what
        # makes the CNF unsatisfiable; it also blocks the second vector.
        r, s = real_var("cc_hr"), real_var("cc_hs")
        atoms = [(real_lt(real_val(0), r), 1), (real_lt(r, real_val(0)), 2),
                 (real_lt(s, real_val(1)), 3)]
        stats = lra_closure(atoms, units=(1, 2))
        assert stats.checks == 1
        assert stats.clauses == [[-2, -1]]
        # With no atom open the one held vector is checked all the same.
        stats = lra_closure(atoms[:2], units=(1, 2))
        assert (stats.checks, stats.clauses) == (1, [[-2, -1]])

    @pytest.mark.parametrize("logic, checks", [("QF_ABVFPLRA", 2),
                                               ("QF_BVFPLRA", 3)])
    def test_generated_lra_instance_checks_only_open_vectors(self, logic,
                                                             checks):
        # QF_ABVFPLRA holds 3 of its 4 atoms by root units, QF_BVFPLRA
        # 4 of its 6; enumerating every vector took 13 and 34 checks.
        instance = GENERATORS[logic](9, width=8)
        result = cc_count(instance.assertions, instance.projection)
        assert result.estimate == instance.known_count
        atoms = {"QF_ABVFPLRA": 4, "QF_BVFPLRA": 6}[logic]
        assert f"closure={atoms} atoms/{checks} checks/" in result.detail

    @pytest.mark.parametrize("seed", range(40))
    def test_blocks_exactly_the_infeasible_unit_consistent_vectors(
            self, seed):
        rng = random.Random(seed)
        pool = [real_var(f"cc_rd{seed}_{i}") for i in range(5)]
        atoms = []
        for literal in range(1, rng.randint(3, 7) + 1):
            terms = [real_mul(real_val(rng.choice((-2, -1, 1, 3))), var)
                     for var in rng.sample(pool, rng.randint(1, 3))]
            expression = terms[0]
            for term in terms[1:]:
                expression = real_add(expression, term)
            relation = rng.choice((real_lt, real_le))
            atoms.append((relation(expression,
                                   real_val(rng.randint(-3, 3))),
                          literal))
        units = tuple(rng.choice((literal, -literal))
                      for _atom, literal in atoms if rng.random() < 0.4)
        stats = lra_closure(atoms, units=units)

        reference = LraTheory()
        for atom, literal in atoms:
            reference.register(atom, literal)
        held = {abs(lit): lit > 0 for lit in units}
        for vector in range(1 << len(atoms)):
            polarity = {literal: bool((vector >> (literal - 1)) & 1)
                        for _atom, literal in atoms}
            if any(polarity[var] != value for var, value in held.items()):
                continue

            def value(lit, polarity=polarity):
                return polarity[abs(lit)] == (lit > 0)

            blocked = any(all(not value(lit) for lit in clause)
                          for clause in stats.clauses)
            feasible, _payload = reference.check(value)
            assert blocked == (not feasible), (seed, vector)


class TestSignature:
    def test_signature_is_order_independent(self):
        graph = ClauseDB(4, [[3, 4], [1, 2]])
        values = [UNSET_V] * 5
        components, _ = graph.split(values, range(1, 5))
        (first, second) = components
        sig_first = component_signature(graph, values, first)
        sig_second = component_signature(graph, values, second)
        assert sig_first == (("c", (1, 2)),)
        assert sig_second == (("c", (3, 4)),)

    def test_occurrences_follow_projection(self):
        signature = (("c", (1, -2)), ("c", (2, 3)), ("x", (2, 4), True))
        occurrences = projection_occurrences(signature, frozenset({2, 4}))
        assert occurrences == {2: 3, 4: 1}


def _cnf_artifact(num_vars, clauses, xors, projection_vars):
    """A synthetic CompiledProblem over raw SAT variables (the search
    never looks at terms, only at the snapshot + projection bits)."""
    solver = CdclDriver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    for variables, rhs in xors:
        solver.add_xor(list(variables), rhs)
    term = _bv_var("cc_raw", max(1, len(projection_vars)))
    return CompiledProblem(
        digest="cc_raw", snapshot=solver.snapshot(), true_lit=0,
        projection=(term,),
        projection_bits=(tuple(projection_vars),))


def _brute_force(num_vars, clauses, xors, projection_vars):
    projected = set()
    for model in range(1 << num_vars):
        def lit_true(lit):
            var = abs(lit)
            value = bool((model >> (var - 1)) & 1)
            return value if lit > 0 else not value
        if not all(any(lit_true(lit) for lit in clause)
                   for clause in clauses):
            continue
        if not all(sum(lit_true(v) for v in variables) % 2 == rhs
                   for variables, rhs in xors):
            continue
        projected.add(tuple((model >> (v - 1)) & 1
                            for v in projection_vars))
    return len(projected)


class TestRandomCnfXorAgainstBruteForce:
    """Random clause DBs (CNF + native XOR rows, random projection):
    the search must agree with brute-force projected enumeration —
    this is the direct oracle for the component/cache/XOR machinery,
    independent of the compile pipeline."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 9)
        clauses = []
        for _ in range(rng.randint(2, 14)):
            size = rng.randint(1, 3)
            clauses.append([rng.choice((1, -1)) * rng.randint(1, num_vars)
                            for _ in range(size)])
        xors = []
        for _ in range(rng.randint(0, 3)):
            width = rng.randint(2, min(4, num_vars))
            xors.append((tuple(rng.sample(range(1, num_vars + 1), width)),
                         bool(rng.getrandbits(1))))
        projection = sorted(rng.sample(
            range(1, num_vars + 1), rng.randint(1, num_vars)))
        expected = _brute_force(num_vars, clauses, xors, projection)
        artifact = _cnf_artifact(num_vars, clauses, xors, projection)
        result = count_compiled(artifact)
        assert result.estimate == expected, (
            f"seed {seed}: cc={result.estimate} brute={expected} "
            f"clauses={clauses} xors={xors} projection={projection}")


class TestApiIntegration:
    def test_registry_resolution(self):
        assert resolve("exact:cc").name == "exact:cc"
        assert resolve("cc").name == "exact:cc"
        assert resolve("exact_cc").name == "exact:cc"

    def test_counter_through_registry(self):
        x = bv_var("cc_reg", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(100, 8))], [x],
                                     name="cc_reg")
        response = resolve("exact:cc").count(
            problem, CountRequest(counter="exact:cc"))
        assert response.estimate == 100
        assert response.exact
        assert response.counter == "exact:cc"

    def test_shares_the_pact_compile_artifact(self):
        from repro.compile import compile_counters
        x = bv_var("cc_share", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(50, 8))], [x],
                                     name="cc_share")
        resolve("exact:cc").count(problem,
                                  CountRequest(counter="exact:cc"))
        builds = compile_counters()["per_key"]
        key = (problem.compile_key, "pact", True)
        before = builds.get(key, 0)
        resolve("pact:xor").count(
            problem, CountRequest(counter="pact:xor", seed=3))
        after = compile_counters()["per_key"].get(key, 0)
        assert after == before  # pact reused exact:cc's artifact

    def test_count_compiled_from_artifact(self):
        x = bv_var("cc_art", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(42, 8))], [x],
                                     name="cc_art")
        artifact = problem.compile()
        result = count_compiled(artifact)
        assert result.estimate == 42

    def test_thread_backend_batch(self):
        """Concurrent exact:cc counts on the thread backend: each
        count searches on its own stack and driver and touches no
        process-global state, so counts side by side stay exact."""
        from repro.api import Session
        problems = []
        expected = []
        for index, bound in enumerate((37, 99, 150, 201)):
            x = bv_var(f"cc_batch{index}", 8)
            problems.append(Problem.from_terms(
                [bv_ult(x, bv_val(bound, 8))], [x],
                name=f"cc_batch{index}"))
            expected.append(bound)
        with Session(jobs=2, backend="thread") as session:
            responses = session.count_batch(
                problems, CountRequest(counter="exact:cc"))
        assert [response.estimate for response in responses] == expected
        assert all(response.exact for response in responses)

    def test_session_persists_component_cache_stats(self, tmp_path):
        """The engine cache keeps the run's cc stats: the cached entry
        (and the response replayed from it) carries the detail string."""
        from repro.api import Session
        x = bv_var("cc_sess", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(99, 8))], [x],
                                     name="cc_sess")
        request = CountRequest(counter="exact:cc")
        with Session(cache_dir=tmp_path / "cache") as session:
            first = session.count(problem, request)
        assert not first.cached and first.detail.startswith("cc: ")
        with Session(cache_dir=tmp_path / "cache") as session:
            second = session.count(problem, request)
        assert second.cached
        assert second.estimate == first.estimate == 99
        assert second.detail == first.detail
