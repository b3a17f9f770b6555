"""Term layer tests: interning, term lifetime, sort checking, operator
overloads."""

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro.api import Problem, Session
from repro.benchgen.generators import GENERATORS
from repro.compile import canonical_digest
from repro.compile.pipeline import compile_problem
from repro.errors import SortError
from repro.smt import (
    And, BitVecSort, BoolSort, Equals, FALSE, Float32, FloatSort, Ite,
    Or, TRUE, bool_var, bv_add, bv_concat, bv_extract,
    bv_ult, bv_val, bv_var, fp_val, fp_var, real_val, real_var, select,
    array_var, apply_uf, uf,
)
from repro.smt.parser import parse_script
from repro.smt.sorts import ArraySort
from repro.smt.terms import term_count


class TestSorts:
    def test_bv_sort_interned(self):
        assert BitVecSort(8) is BitVecSort(8)
        assert BitVecSort(8) is not BitVecSort(9)

    def test_bool_singleton(self):
        assert BoolSort() is BoolSort()

    def test_fp_sort_interned(self):
        assert FloatSort(8, 24) is Float32

    def test_fp_total_width(self):
        assert Float32.total_width == 32
        assert FloatSort(5, 11).total_width == 16

    def test_array_sort_interned(self):
        s1 = ArraySort(BitVecSort(4), BitVecSort(8))
        s2 = ArraySort(BitVecSort(4), BitVecSort(8))
        assert s1 is s2

    def test_zero_width_bv_rejected(self):
        with pytest.raises(SortError):
            BitVecSort(0)


class TestInterning:
    def test_vars_interned_by_name_and_sort(self):
        assert bv_var("x", 8) is bv_var("x", 8)
        assert bv_var("x", 8) is not bv_var("x", 9)
        assert bv_var("x", 8) is not bv_var("y", 8)

    def test_compound_terms_interned(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert bv_add(x, y) is bv_add(x, y)

    def test_constants_normalised_modulo_width(self):
        assert bv_val(256, 8) is bv_val(0, 8)
        assert bv_val(-1, 8) is bv_val(255, 8)

    def test_real_constants_by_value(self):
        assert real_val(Fraction(1, 2)) is real_val("1/2")

    def test_extract_params_distinguish(self):
        x = bv_var("x", 8)
        assert bv_extract(x, 3, 0) is not bv_extract(x, 4, 0)
        assert bv_extract(x, 3, 0) is bv_extract(x, 3, 0)


def _stress_structures(tag: int) -> dict:
    """Vars, constants and nested ``bv_add``/``Ite`` terms over names no
    other test uses, by label."""
    x = bv_var(f"stress_x{tag}", 11)
    y = bv_var(f"stress_y{tag}", 11)
    const = bv_val(1000 + tag, 11)
    total = bv_add(bv_add(x, const), y)
    return {"x": x, "y": y, "const": const, "total": total,
            "ite": Ite(bv_ult(total, y), total, bv_add(x, x))}


def _compile_script(text: str):
    """(DIMACS, digest, weak refs to the parsed terms) of ``text``."""
    script = parse_script(text)
    assertions, projection = list(script.assertions), list(script.projection)
    artifact = compile_problem(
        assertions, projection,
        digest=canonical_digest(assertions, projection))
    refs = [weakref.ref(term) for term in assertions + projection]
    return artifact.to_dimacs(), artifact.digest, refs


# Peak RSS after 100 and after 1,000 distinct serve-mix-style problems
# (14-bit exact:cc over every logic, alpha-renamed copies) through one
# Session, in a fresh interpreter so earlier tests do not set the peak.
_RSS_PROGRAM = """
import json, resource, sys
from repro.api import Problem, Session
from repro.benchgen.generators import GENERATORS

def kept(logic, seed):
    while True:
        instance = GENERATORS[logic](seed, width=14)
        if instance.known_count >= 500:
            return instance
        seed += 1

bases = [kept(logic, index * 100) for index in range(2)
         for logic in sorted(GENERATORS)]
texts = [(b.name, b.to_smtlib(), b.known_count) for b in bases]
del bases
peaks = {}
with Session() as session:
    for index in range(1000):
        base, text, known = texts[index % len(texts)]
        name = f"{base}.v{index}"
        problem = Problem.from_script(text.replace(f"{base}!", f"{name}!"),
                                      name=name)
        response = session.count(problem, counter="exact:cc")
        if response.estimate != known:
            sys.exit(f"{name}: counted {response.estimate}, known {known}")
        if index + 1 in (100, 1000):
            peaks[index + 1] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(peaks))
"""


class TestLifetime:
    def test_unreferenced_term_is_collected(self):
        x, y = bv_var("life_x", 8), bv_var("life_y", 8)
        total = bv_add(x, y)
        ref, old_id = weakref.ref(total), total.term_id
        before = term_count()
        del total
        assert ref() is None
        assert term_count() < before
        again = bv_add(x, y)
        assert again.term_id > old_id
        assert bv_add(x, y) is again
        assert bv_add(x, y).term_id == again.term_id

    def test_threads_share_one_live_object_per_structure(self):
        # Four threads build, compare and drop the same structures; the
        # registry remembers the last object seen per structure, and an
        # object still alive after a build must be the one it returned.
        registry: dict[tuple, weakref.ref] = {}
        registry_lock = threading.Lock()
        rebuilt = [0]

        def work(worker: int) -> None:
            for round_ in range(400):
                tag = (round_ + worker) % 8
                built = _stress_structures(tag)
                again = _stress_structures(tag)
                for label, term in built.items():
                    assert again[label] is term
                    with registry_lock:
                        ref = registry.get((tag, label))
                        held = ref() if ref is not None else None
                        if held is None:
                            if ref is not None:
                                rebuilt[0] += 1
                            registry[(tag, label)] = weakref.ref(term)
                    assert held is None or held is term, (tag, label)
                    del held
                del built, again, term

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(work, worker) for worker in range(4)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert rebuilt[0] > 0  # structures died and were built anew
        gc.collect()
        assert all(ref() is None for (_, label), ref in registry.items()
                   if label != "const")

    @pytest.mark.parametrize("logic", sorted(GENERATORS))
    def test_recompile_after_collection_is_identical(self, logic):
        text = GENERATORS[logic](907, width=10).to_smtlib()
        dimacs, digest, refs = _compile_script(text)
        gc.collect()
        assert all(ref() is None for ref in refs)
        again_dimacs, again_digest, _ = _compile_script(text)
        assert again_dimacs == dimacs
        assert again_digest == digest

    def test_session_live_terms_stay_bounded(self):
        bases = [GENERATORS[logic](911, width=8)
                 for logic in sorted(GENERATORS)]
        with Session() as session:
            start = term_count()
            for index in range(200):
                # Every symbol renamed, so no cache can serve the copy.
                base = bases[index % len(bases)]
                name = f"{base.name}.v{index}"
                text = base.to_smtlib().replace(f"{base.name}!",
                                                f"{name}!")
                response = session.count(
                    Problem.from_script(text, name=name),
                    counter="exact:cc")
                assert response.estimate == base.known_count, name
            grown = term_count() - start
        # A few hundred terms stay live whatever the number of problems;
        # a table holding every term ever built grows by about 80 per
        # problem here, to about 16,000.
        assert grown < 4000

    @pytest.mark.slow
    def test_peak_rss_flat_over_1000_problems(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _RSS_PROGRAM], env=env,
            capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        peaks = json.loads(run.stdout.strip().splitlines()[-1])
        assert peaks["1000"] <= 1.10 * peaks["100"], peaks


class TestSortChecking:
    def test_width_mismatch_rejected(self):
        with pytest.raises(SortError):
            bv_add(bv_var("x", 8), bv_var("y", 9))

    def test_bool_bv_mix_rejected(self):
        with pytest.raises(SortError):
            And(bool_var("b"), bv_var("x", 1))

    def test_eq_across_sorts_rejected(self):
        with pytest.raises(SortError):
            Equals(bv_var("x", 8), real_var("r"))

    def test_fp_equals_requires_fp_eq(self):
        with pytest.raises(SortError):
            Equals(fp_var("a", 8, 24), fp_var("b", 8, 24))

    def test_ite_branch_mismatch(self):
        with pytest.raises(SortError):
            Ite(bool_var("c"), bv_var("x", 8), real_var("r"))

    def test_extract_out_of_range(self):
        with pytest.raises(SortError):
            bv_extract(bv_var("x", 8), 8, 0)

    def test_select_index_mismatch(self):
        a = array_var("a", BitVecSort(4), BitVecSort(8))
        with pytest.raises(SortError):
            select(a, bv_var("i", 5))

    def test_uf_arity_mismatch(self):
        f = uf("f", [BitVecSort(4), BitVecSort(4)], BoolSort())
        with pytest.raises(SortError):
            apply_uf(f, bv_var("i", 4))


class TestOverloads:
    def test_bv_arith_overloads(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert (x + y).op == "bv.add"
        assert (x - y).op == "bv.sub"
        assert (x * y).op == "bv.mul"
        assert (x & y).op == "bv.and"
        assert (x | y).op == "bv.or"
        assert (x ^ y).op == "bv.xor"
        assert (~x).op == "bv.not"
        assert (-x).op == "bv.neg"
        assert (x < y).op == "bv.ult"
        assert (x.slt(y)).op == "bv.slt"

    def test_int_coercion(self):
        x = bv_var("x", 8)
        assert (x + 1) is bv_add(x, bv_val(1, 8))

    def test_real_overloads(self):
        r, q = real_var("r"), real_var("q")
        assert (r + q).op == "real.add"
        assert (r < q).op == "real.lt"
        assert (r <= 1).op == "real.le"

    def test_bool_overloads(self):
        a, b = bool_var("a"), bool_var("b")
        assert (a & b).op == "bool.and"
        assert (a | b).op == "bool.or"
        assert (~a).op == "bool.not"

    def test_python_eq_is_identity_not_term(self):
        x, y = bv_var("x", 8), bv_var("y", 8)
        assert (x == y) is False
        assert (x == x) is True
        assert x.eq(y).op == "core.eq"


class TestNaryHelpers:
    def test_empty_and_is_true(self):
        assert And() is TRUE

    def test_empty_or_is_false(self):
        assert Or() is FALSE

    def test_singleton_collapses(self):
        b = bool_var("b")
        assert And(b) is b
        assert Or(b) is b

    def test_and_accepts_list(self):
        a, b = bool_var("a"), bool_var("b")
        assert And([a, b]) is And(a, b)

    def test_concat_widths(self):
        x, y = bv_var("x", 3), bv_var("y", 5)
        assert bv_concat(x, y).sort.width == 8

    def test_fp_val_masks(self):
        v = fp_val(1 << 40, 3, 4)  # width 7; high bits dropped
        assert v.payload < (1 << 7)
