"""Problem: construction fronts, serialisation, pickling, fingerprint
ownership."""

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import CountRequest, Problem, Session, fingerprint_terms
from repro.benchgen.generators import qf_bvfp
from repro.compile import canonical_digest
from repro.errors import CounterError, ReproError
from repro.smt.parser import parse_script
from repro.smt.terms import bv_ult, bv_val, bv_var

SCRIPT = """
(set-logic QF_BV)
(declare-fun p () (_ BitVec 6))
(declare-fun q () (_ BitVec 4))
(set-info :projected-vars (p))
(assert (bvult p #b010100))
"""


def _terms(name="pb_x"):
    x = bv_var(name, 8)
    return [bv_ult(x, bv_val(100, 8))], [x]


class TestConstruction:
    def test_from_terms(self):
        assertions, projection = _terms()
        problem = Problem.from_terms(assertions, projection, name="toy")
        assert problem.name == "toy"
        assert problem.assertions == tuple(assertions)
        assert problem.projection == tuple(projection)

    def test_from_terms_single_assertion(self):
        assertions, projection = _terms("pb_single")
        problem = Problem.from_terms(assertions[0], projection)
        assert len(problem.assertions) == 1

    def test_from_terms_requires_projection(self):
        assertions, _ = _terms("pb_noproj")
        with pytest.raises(CounterError):
            Problem.from_terms(assertions, [])

    def test_from_script(self):
        problem = Problem.from_script(SCRIPT, name="s")
        assert problem.logic == "QF_BV"
        assert [v.name for v in problem.projection] == ["p"]

    def test_from_script_project_override(self):
        problem = Problem.from_script(SCRIPT, project=["q"])
        assert [v.name for v in problem.projection] == ["q"]

    def test_from_script_undeclared_projection(self):
        with pytest.raises(ReproError):
            Problem.from_script(SCRIPT, project=["nope"])

    def test_from_script_missing_projection(self):
        with pytest.raises(ReproError):
            Problem.from_script("(assert true)")

    def test_from_terms_dedupes_projection(self):
        """Same guard as pact_count: a duplicated projection variable
        would double-count bits in projection_bits()/total_bits."""
        assertions, projection = _terms("pb_dup")
        x = projection[0]
        problem = Problem.from_terms(assertions, [x, x, x])
        assert problem.projection == (x,)
        assert problem.projection_bits() == 8

    def test_from_terms_dedupe_preserves_order(self):
        x, y = bv_var("pb_ordx", 4), bv_var("pb_ordy", 4)
        problem = Problem.from_terms([bv_ult(x, bv_val(3, 4))],
                                     [y, x, y, x])
        assert problem.projection == (y, x)

    def test_from_script_project_override_deduped(self):
        problem = Problem.from_script(SCRIPT, project=["q", "q", "p"])
        assert [v.name for v in problem.projection] == ["q", "p"]

    def test_from_file(self, tmp_path):
        path = tmp_path / "toy.smt2"
        path.write_text(SCRIPT)
        problem = Problem.from_file(path)
        assert problem.name == "toy"
        assert problem.projection_bits() == 6

    def test_from_instance(self):
        instance = qf_bvfp(seed=1, width=8)
        problem = Problem.from_instance(instance)
        assert problem.name == instance.name
        assert problem.logic == instance.logic
        assert problem.to_script() == instance.to_smtlib()


class TestSerialisation:
    def test_script_round_trips(self):
        assertions, projection = _terms("pb_round")
        problem = Problem.from_terms(assertions, projection)
        parsed = parse_script(problem.to_script())
        assert parsed.assertions == list(problem.assertions)
        assert parsed.projection == list(problem.projection)

    def test_script_is_deterministic(self):
        assertions, projection = _terms("pb_det")
        one = Problem.from_terms(assertions, projection)
        two = Problem.from_terms(assertions, projection)
        assert one.to_script() == two.to_script()


def _same_terms(left, right) -> bool:
    return len(left) == len(right) and all(
        one is other for one, other in zip(left, right))


def _count_here(problem):
    """What a process makes of ``problem``: its compile key (as carried
    and as recomputed from its terms), fingerprint, estimate and oracle
    calls."""
    response = Session().count(problem, CountRequest(
        counter="pact:xor", seed=3, iteration_override=3))
    return (problem.compile_key,
            canonical_digest(problem.assertions, problem.projection),
            problem.fingerprint(), response.estimate,
            response.solver_calls)


class TestPickling:
    """A problem pickles as its script and compile key; unpickling parses
    the script into the receiving process's interned terms."""

    def test_round_trip_gives_the_same_interned_terms(self):
        assertions, projection = _terms("pb_pickle")
        for problem in (Problem.from_terms(assertions, projection,
                                           name="toy"),
                        Problem.from_script(SCRIPT, name="s",
                                            project=["q", "p"]),
                        # no projection: enum counts it (1 if the
                        # formula is satisfiable)
                        Problem(assertions=tuple(assertions),
                                projection=())):
            revived = pickle.loads(pickle.dumps(problem))
            assert _same_terms(revived.assertions, problem.assertions)
            assert _same_terms(revived.projection, problem.projection)
            assert revived.name == problem.name
            assert revived.logic == problem.logic
            assert revived.compile_key == problem.compile_key
            assert revived.fingerprint() == problem.fingerprint()

    def test_a_spawned_process_counts_the_same(self):
        x = bv_var("pb_spawn", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(200, 8))], [x],
                                     name="pb_spawn")
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=context) as executor:
            remote = executor.submit(_count_here, problem).result(
                timeout=120)
        local = _count_here(problem)
        assert local[0] == local[1]
        assert remote == local


class TestFingerprint:
    def test_matches_engine_fingerprint(self):
        """The matrix scheduler keys slots with ``fingerprint_terms``;
        a problem's fingerprint is the same key."""
        assertions, projection = _terms("pb_fp")
        problem = Problem.from_terms(assertions, projection)
        params = {"configuration": "pact_xor", "epsilon": 0.8}
        assert (problem.fingerprint(params)
                == fingerprint_terms(assertions, projection, params))

    def test_sensitive_to_formula_and_params(self):
        a1, p1 = _terms("pb_s1")
        problem = Problem.from_terms(a1, p1)
        other = Problem.from_terms(
            [bv_ult(p1[0], bv_val(99, 8))], p1)
        assert problem.fingerprint() != other.fingerprint()
        assert (problem.fingerprint({"seed": 1})
                != problem.fingerprint({"seed": 2}))

    def test_default_cache_keys_are_frozen(self):
        """Golden keys: every persisted result-store entry was written
        under these, so a default request must keep producing them byte
        for byte."""
        params = CountRequest().cache_params("pact:xor")
        assert params == {"counter": "pact:xor", "epsilon": 0.8,
                          "delta": 0.2, "seed": 1, "timeout": None,
                          "iterations": None, "limit": None}
        x = bv_var("golden_x", 8)
        problem = Problem.from_terms([bv_ult(x, bv_val(200, 8))], [x],
                                     name="golden")
        assert problem.fingerprint(params) == (
            "1544ded6bcf8cc96e69c9d079f6bdb24"
            "dd5081edf666b2ed91cb3adb720bab94")
        assert problem.fingerprint(
            CountRequest(counter="exact:cc").cache_params()) == (
            "057a9fceb8ae2667303634b57e38e18d"
            "ed969ebd8555fdc8fc745651c3621dd1")
