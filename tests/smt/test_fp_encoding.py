"""FP->BV encoding vs the softfloat reference, through the full solver."""

import random

import pytest

from repro.errors import UnsupportedFeatureError
from repro.smt import (
    Equals, Iff, Not, SmtSolver, bool_var, bv_val, bv_var, fp_abs,
    fp_add, fp_eq, fp_from_bv, fp_is_inf, fp_is_nan, fp_is_negative,
    fp_is_normal, fp_is_positive, fp_is_subnormal, fp_is_zero, fp_leq,
    fp_lt, fp_max, fp_min, fp_mul, fp_neg, fp_sub, fp_to_bv, fp_var,
)
from repro.smt.theories.fp.softfloat import FpFormat, SoftFloat


class FpHarness:
    """Pin FP variable bit patterns per case via push/pop frames."""

    def __init__(self, eb, sb, expressions):
        self.sf = SoftFloat(FpFormat(eb, sb))
        self.width = self.sf.fmt.total_width
        tag = f"{eb}_{sb}_{id(self)}"
        self.a = fp_var(f"ha{tag}", eb, sb)
        self.b = fp_var(f"hb{tag}", eb, sb)
        self.solver = SmtSolver()
        self.pa = bv_var(f"hpa{tag}", self.width)
        self.pb = bv_var(f"hpb{tag}", self.width)
        self.solver.assert_term(Equals(fp_to_bv(self.a), self.pa))
        self.solver.assert_term(Equals(fp_to_bv(self.b), self.pb))
        self.outputs = {}
        for name, build in expressions.items():
            expression = build(self.a, self.b)
            if expression.sort.is_bool():
                out = bool_var(f"hout_{name}{tag}")
                self.solver.assert_term(Iff(out, expression))
            else:
                out = bv_var(f"hout_{name}{tag}", self.width)
                self.solver.assert_term(Equals(fp_to_bv(expression), out))
            self.outputs[name] = out

    def run(self, va, vb):
        self.solver.push()
        self.solver.assert_term(Equals(self.pa, bv_val(va, self.width)))
        self.solver.assert_term(Equals(self.pb, bv_val(vb, self.width)))
        assert self.solver.check() is True
        model = self.solver.model()
        results = {name: model.value(out)
                   for name, out in self.outputs.items()}
        self.solver.pop()
        return results


def interesting_patterns(sf):
    """Edge-case bit patterns: zeros, infs, NaN, subnormals, boundaries."""
    fmt = sf.fmt
    return [
        sf.zero(0), sf.zero(1), sf.inf(0), sf.inf(1), sf.nan(),
        1,                                # smallest subnormal
        (1 << (fmt.sb - 1)) - 1,          # largest subnormal
        sf.pack(0, 1, 0),                 # smallest normal
        sf.max_normal(0), sf.max_normal(1),
        sf.pack(0, fmt.bias, 0),          # 1.0
        sf.pack(1, fmt.bias, 0),          # -1.0
    ]


@pytest.mark.parametrize("eb,sb", [(3, 3), (3, 4), (4, 4)])
def test_arithmetic_matches_softfloat(eb, sb):
    harness = FpHarness(eb, sb, {
        "add": fp_add, "sub": fp_sub, "mul": fp_mul,
        "min": fp_min, "max": fp_max,
    })
    sf = harness.sf
    rng = random.Random(eb * 31 + sb)
    cases = [(a, b) for a in interesting_patterns(sf)
             for b in interesting_patterns(sf)[:4]]
    cases += [(rng.randrange(1 << harness.width),
               rng.randrange(1 << harness.width)) for _ in range(40)]
    reference = {"add": sf.add, "sub": sf.sub, "mul": sf.mul,
                 "min": sf.min_, "max": sf.max_}
    for va, vb in cases:
        results = harness.run(va, vb)
        for name, got in results.items():
            expected = reference[name](va, vb)
            if sf.is_nan(expected) and sf.is_nan(got):
                continue
            assert got == expected, (name, va, vb, got, expected)


@pytest.mark.parametrize("eb,sb", [(3, 3), (4, 4)])
def test_comparisons_match_softfloat(eb, sb):
    harness = FpHarness(eb, sb, {
        "eq": fp_eq, "lt": fp_lt, "leq": fp_leq,
    })
    sf = harness.sf
    rng = random.Random(eb * 7 + sb)
    cases = [(a, b) for a in interesting_patterns(sf)
             for b in interesting_patterns(sf)[:5]]
    cases += [(rng.randrange(1 << harness.width),
               rng.randrange(1 << harness.width)) for _ in range(30)]
    for va, vb in cases:
        results = harness.run(va, vb)
        assert results["eq"] == sf.eq(va, vb), (va, vb)
        assert results["lt"] == sf.lt(va, vb), (va, vb)
        assert results["leq"] == sf.leq(va, vb), (va, vb)


def test_classification_predicates():
    harness = FpHarness(3, 4, {
        "nan": lambda a, b: fp_is_nan(a),
        "inf": lambda a, b: fp_is_inf(a),
        "zero": lambda a, b: fp_is_zero(a),
        "normal": lambda a, b: fp_is_normal(a),
        "subnormal": lambda a, b: fp_is_subnormal(a),
        "neg": lambda a, b: fp_is_negative(a),
        "pos": lambda a, b: fp_is_positive(a),
    })
    sf = harness.sf
    for va in range(1 << harness.width):  # exhaustive: 128 patterns
        results = harness.run(va, 0)
        assert results["nan"] == sf.is_nan(va), va
        assert results["inf"] == sf.is_inf(va), va
        assert results["zero"] == sf.is_zero(va), va
        assert results["normal"] == sf.is_normal(va), va
        assert results["subnormal"] == sf.is_subnormal(va), va
        assert results["neg"] == sf.is_negative(va), va
        assert results["pos"] == sf.is_positive(va), va


def test_abs_neg():
    harness = FpHarness(3, 3, {
        "abs": lambda a, b: fp_abs(a),
        "neg": lambda a, b: fp_neg(a),
    })
    sf = harness.sf
    for va in range(64):
        results = harness.run(va, 0)
        assert results["abs"] == sf.abs_(va)
        assert results["neg"] == sf.neg(va)


def test_fp_solving_backwards():
    """Solve for an *input* given the output — only possible with a real
    bit-level encoding (no evaluation shortcut)."""
    eb, sb = 3, 4
    sf = SoftFloat(FpFormat(eb, sb))
    x = fp_var("bw_x", eb, sb)
    two = fp_from_bv(bv_val(sf.from_fraction(2), sf.fmt.total_width), eb, sb)
    eight = fp_from_bv(bv_val(sf.from_fraction(8), sf.fmt.total_width),
                       eb, sb)
    solver = SmtSolver()
    solver.assert_term(fp_eq(fp_mul(x, two), eight))
    assert solver.check() is True
    model = solver.model()
    assert sf.to_fraction(model.value(x)) == 4

    solver.push()
    solver.assert_term(Not(fp_eq(x, fp_from_bv(
        bv_val(sf.from_fraction(4), sf.fmt.total_width), eb, sb))))
    assert solver.check() is False  # 4 is the unique solution
    solver.pop()


def test_unsupported_ops_raise():
    from repro.smt.parser import parse_script
    with pytest.raises(UnsupportedFeatureError):
        parse_script("""
            (set-logic QF_FP)
            (declare-fun x () (_ FloatingPoint 3 4))
            (assert (fp.eq (fp.div RNE x x) x))
        """)
