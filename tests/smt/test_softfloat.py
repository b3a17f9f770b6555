"""SoftFloat reference tests, including cross-checks against host floats."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.theories.fp.softfloat import (
    FLOAT32, FLOAT64, FpFormat, SoftFloat,
)


@pytest.fixture(scope="module")
def f32():
    return SoftFloat(FLOAT32)


@pytest.fixture(scope="module")
def f64():
    return SoftFloat(FLOAT64)


class TestPackingAndClassification:
    def test_zero_and_inf_patterns(self, f32):
        assert f32.zero(0) == 0
        assert f32.zero(1) == 0x80000000
        assert f32.inf(0) == 0x7F800000
        assert f32.inf(1) == 0xFF800000

    def test_nan_is_canonical_quiet(self, f32):
        assert f32.is_nan(f32.nan())
        assert math.isnan(f32.to_python(f32.nan()))

    def test_classification(self, f32):
        one = f32.from_python(1.0)
        assert f32.is_normal(one)
        assert not f32.is_subnormal(one)
        tiny = 1  # smallest positive subnormal
        assert f32.is_subnormal(tiny)
        assert not f32.is_normal(tiny)
        assert f32.is_zero(f32.zero(1))
        assert f32.is_negative(f32.from_python(-2.5))
        assert f32.is_positive(f32.from_python(2.5))
        assert not f32.is_negative(f32.nan())
        assert not f32.is_positive(f32.nan())

    def test_round_trip_python(self, f32):
        for value in (0.0, -0.0, 1.0, -1.5, 3.14159, 1e-40, 1e38):
            assert f32.to_python(f32.from_python(value)) == struct.unpack(
                "<f", struct.pack("<f", value))[0]

    def test_to_fraction(self, f32):
        assert f32.to_fraction(f32.from_python(0.5)) == Fraction(1, 2)
        assert f32.to_fraction(f32.from_python(-0.25)) == Fraction(-1, 4)
        with pytest.raises(ValueError):
            f32.to_fraction(f32.inf(0))


class TestArithmeticVsHost:
    """The host's IEEE doubles are the oracle for Float64 RNE arithmetic."""

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_add_matches_hardware(self, a, b):
        f64 = SoftFloat(FLOAT64)
        got = f64.add(f64.from_python(a), f64.from_python(b))
        expected = f64.from_python(a + b)
        assert got == expected, (a, b)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_hardware(self, a, b):
        f64 = SoftFloat(FLOAT64)
        got = f64.mul(f64.from_python(a), f64.from_python(b))
        expected = f64.from_python(a * b)
        assert got == expected, (a, b)

    @given(st.floats(width=32), st.floats(width=32))
    @settings(max_examples=300, deadline=None)
    def test_float32_add_including_specials(self, a, b):
        numpy = pytest.importorskip("numpy")
        f32 = SoftFloat(FLOAT32)
        pa, pb = f32.from_python(a), f32.from_python(b)
        got = f32.add(pa, pb)
        with numpy.errstate(all="ignore"):
            expected = f32.from_python(
                float(numpy.float32(a) + numpy.float32(b)))
        if f32.is_nan(got) and f32.is_nan(expected):
            return
        assert got == expected, (a, b)

    def test_subnormal_boundary_rounding(self, f32):
        # Smallest normal / 2 rounds into the subnormal range exactly.
        smallest_normal = f32.pack(0, 1, 0)
        half = f32.mul(smallest_normal, f32.from_python(0.5))
        assert f32.is_subnormal(half)
        assert f32.to_fraction(half) == f32.to_fraction(smallest_normal) / 2

    def test_overflow_goes_to_infinity(self, f32):
        big = f32.max_normal(0)
        assert f32.is_inf(f32.mul(big, f32.from_python(2.0)))
        assert f32.is_inf(f32.add(big, big))

    def test_inf_minus_inf_is_nan(self, f32):
        assert f32.is_nan(f32.add(f32.inf(0), f32.inf(1)))

    def test_inf_times_zero_is_nan(self, f32):
        assert f32.is_nan(f32.mul(f32.inf(0), f32.zero(0)))

    def test_negative_zero_sum(self, f32):
        nz = f32.zero(1)
        assert f32.add(nz, nz) == nz              # -0 + -0 = -0
        assert f32.add(nz, f32.zero(0)) == 0       # -0 + +0 = +0
        one = f32.from_python(1.0)
        m_one = f32.from_python(-1.0)
        assert f32.add(one, m_one) == 0            # exact cancel -> +0


class TestComparisons:
    def test_nan_unordered(self, f32):
        nan = f32.nan()
        one = f32.from_python(1.0)
        assert not f32.eq(nan, nan)
        assert not f32.lt(nan, one)
        assert not f32.leq(one, nan)
        assert f32.compare(nan, one) is None

    def test_zero_signs_equal(self, f32):
        assert f32.eq(f32.zero(0), f32.zero(1))
        assert not f32.lt(f32.zero(1), f32.zero(0))

    @given(st.floats(allow_nan=False, width=32),
           st.floats(allow_nan=False, width=32))
    @settings(max_examples=200, deadline=None)
    def test_ordering_matches_host(self, a, b):
        f32 = SoftFloat(FLOAT32)
        pa, pb = f32.from_python(a), f32.from_python(b)
        assert f32.lt(pa, pb) == (a < b)
        assert f32.leq(pa, pb) == (a <= b)
        assert f32.eq(pa, pb) == (a == b)

    def test_min_max_zero_conventions(self, f32):
        pz, nz = f32.zero(0), f32.zero(1)
        assert f32.min_(pz, nz) == nz
        assert f32.max_(nz, pz) == pz

    def test_min_max_nan_gives_other(self, f32):
        one = f32.from_python(1.0)
        assert f32.min_(f32.nan(), one) == one
        assert f32.max_(one, f32.nan()) == one


class TestFromFraction:
    def test_exact_values(self, f32):
        assert f32.from_fraction(Fraction(1, 2)) == f32.from_python(0.5)
        assert f32.from_fraction(3) == f32.from_python(3.0)
        assert f32.from_fraction(Fraction(-7, 4)) == f32.from_python(-1.75)

    def test_inexact_rounds_to_nearest(self, f32):
        assert f32.from_fraction(Fraction(1, 3)) == f32.from_python(1 / 3)
        assert f32.from_fraction(Fraction(1, 10)) == f32.from_python(0.1)

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_matches_host_division(self, num, den):
        f64 = SoftFloat(FLOAT64)
        got = f64.from_fraction(Fraction(num, den))
        expected = f64.from_python(num / den)
        assert got == expected


class TestTinyFormats:
    """Exhaustive checks on FP(3,3): 64 bit patterns."""

    def test_add_commutative(self):
        sf = SoftFloat(FpFormat(3, 3))
        for a in range(64):
            for b in range(64):
                x, y = sf.add(a, b), sf.add(b, a)
                assert x == y or (sf.is_nan(x) and sf.is_nan(y))

    def test_mul_commutative(self):
        sf = SoftFloat(FpFormat(3, 3))
        for a in range(64):
            for b in range(64):
                x, y = sf.mul(a, b), sf.mul(b, a)
                assert x == y or (sf.is_nan(x) and sf.is_nan(y))

    def test_add_identity_zero(self):
        sf = SoftFloat(FpFormat(3, 3))
        for a in range(64):
            if sf.is_nan(a):
                continue
            assert sf.add(a, sf.zero(0)) == a or sf.is_zero(a)

    def test_exact_values_against_fraction_model(self):
        """Every finite FP(3,3) add agrees with exact rational rounding."""
        sf = SoftFloat(FpFormat(3, 3))
        for a in range(64):
            for b in range(64):
                if not (sf.is_normal(a) or sf.is_subnormal(a)
                        or sf.is_zero(a)):
                    continue
                if not (sf.is_normal(b) or sf.is_subnormal(b)
                        or sf.is_zero(b)):
                    continue
                result = sf.add(a, b)
                exact = sf.to_fraction(a) + sf.to_fraction(b)
                rounded = sf.from_fraction(exact)
                if sf.is_zero(result) and sf.is_zero(rounded):
                    continue  # sign-of-zero conventions differ by path
                assert result == rounded, (a, b)
