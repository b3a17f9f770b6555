"""Exact pure-Python IEEE-754 arithmetic over packed bit patterns.

This is the reference semantics for the FP theory: the evaluator uses it to
compute concrete FP values, the rewriter uses it for constant folding, and
the test suite validates both the bit-blasted encoding and (for Float32/64)
the host's hardware floats against it.

Values are packed IEEE bit patterns (Python ints).  A format is ``(eb,
sb)`` with ``sb`` including the hidden bit — SMT-LIB convention, so
Float32 is (8, 24).

Arithmetic is computed exactly over integers — a value is ``(-1)^sign *
sig * 2^exp`` with an arbitrary-precision ``sig`` — then rounded once with
round-to-nearest-even.  This avoids double rounding entirely.
"""

from __future__ import annotations

import struct
from fractions import Fraction


class FpFormat:
    """An IEEE format: ``eb`` exponent bits, ``sb`` significand bits
    (hidden bit included)."""

    __slots__ = ("eb", "sb")

    def __init__(self, eb: int, sb: int):
        if eb < 2 or sb < 2:
            raise ValueError("FP format needs eb >= 2, sb >= 2")
        self.eb = eb
        self.sb = sb

    @property
    def total_width(self) -> int:
        return 1 + self.eb + self.sb - 1

    @property
    def bias(self) -> int:
        return (1 << (self.eb - 1)) - 1

    @property
    def emin(self) -> int:
        """Smallest normal exponent."""
        return 1 - self.bias

    @property
    def emax(self) -> int:
        """Largest normal exponent."""
        return self.bias

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpFormat)
                and self.eb == other.eb and self.sb == other.sb)

    def __hash__(self) -> int:
        return hash((self.eb, self.sb))

    def __repr__(self) -> str:
        return f"FpFormat({self.eb}, {self.sb})"


FLOAT16 = FpFormat(5, 11)
FLOAT32 = FpFormat(8, 24)
FLOAT64 = FpFormat(11, 53)


class SoftFloat:
    """IEEE-754 operations for one format, over packed bit patterns."""

    def __init__(self, fmt: FpFormat):
        self.fmt = fmt
        self._mbits = fmt.sb - 1                  # stored mantissa bits
        self._mmask = (1 << self._mbits) - 1
        self._emask = (1 << fmt.eb) - 1
        self._hidden = 1 << self._mbits

    # ------------------------------------------------------------------
    # packing / classification
    # ------------------------------------------------------------------
    def unpack(self, bits: int) -> tuple[int, int, int]:
        """Split packed bits into (sign, exponent field, mantissa field)."""
        mantissa = bits & self._mmask
        exponent = (bits >> self._mbits) & self._emask
        sign = (bits >> (self._mbits + self.fmt.eb)) & 1
        return sign, exponent, mantissa

    def pack(self, sign: int, exponent: int, mantissa: int) -> int:
        return ((sign << (self._mbits + self.fmt.eb))
                | (exponent << self._mbits) | mantissa)

    def zero(self, sign: int = 0) -> int:
        return self.pack(sign, 0, 0)

    def inf(self, sign: int = 0) -> int:
        return self.pack(sign, self._emask, 0)

    def nan(self) -> int:
        """The canonical quiet NaN (sign 0, msb of mantissa set)."""
        return self.pack(0, self._emask, 1 << (self._mbits - 1))

    def max_normal(self, sign: int = 0) -> int:
        return self.pack(sign, self._emask - 1, self._mmask)

    def is_nan(self, bits: int) -> bool:
        _, e, m = self.unpack(bits)
        return e == self._emask and m != 0

    def is_inf(self, bits: int) -> bool:
        _, e, m = self.unpack(bits)
        return e == self._emask and m == 0

    def is_zero(self, bits: int) -> bool:
        _, e, m = self.unpack(bits)
        return e == 0 and m == 0

    def is_subnormal(self, bits: int) -> bool:
        _, e, m = self.unpack(bits)
        return e == 0 and m != 0

    def is_normal(self, bits: int) -> bool:
        _, e, _ = self.unpack(bits)
        return 0 < e < self._emask

    def is_negative(self, bits: int) -> bool:
        """SMT-LIB fp.isNegative: false for NaN."""
        if self.is_nan(bits):
            return False
        return self.unpack(bits)[0] == 1

    def is_positive(self, bits: int) -> bool:
        if self.is_nan(bits):
            return False
        return self.unpack(bits)[0] == 0

    # ------------------------------------------------------------------
    # exact decomposition
    # ------------------------------------------------------------------
    def decompose(self, bits: int) -> tuple[int, int, int]:
        """Finite value as (sign, exp, sig) with value = ±sig * 2^exp.

        Precondition: ``bits`` is finite (not NaN/inf).
        """
        sign, e, m = self.unpack(bits)
        if e == 0:
            return sign, self.fmt.emin - self._mbits, m
        return sign, e - self.fmt.bias - self._mbits, m | self._hidden

    def to_fraction(self, bits: int) -> Fraction:
        """Exact rational value of a finite FP number."""
        if self.is_nan(bits) or self.is_inf(bits):
            raise ValueError("non-finite value has no rational value")
        sign, exp, sig = self.decompose(bits)
        magnitude = (Fraction(sig) * Fraction(2) ** exp)
        return -magnitude if sign else magnitude

    # ------------------------------------------------------------------
    # rounding
    # ------------------------------------------------------------------
    def round_pack(self, sign: int, exp: int, sig: int) -> int:
        """Round (-1)^sign * sig * 2^exp to nearest-even and pack.

        ``sig`` is an exact non-negative integer of any size.
        """
        if sig == 0:
            return self.zero(sign)
        fmt = self.fmt
        length = sig.bit_length()
        magnitude_exp = exp + length - 1  # floor(log2 |value|)
        if magnitude_exp < fmt.emin:
            quantum = fmt.emin - self._mbits
        else:
            quantum = magnitude_exp - self._mbits
        shift = quantum - exp
        if shift <= 0:
            q = sig << (-shift)
        else:
            q = sig >> shift
            remainder = sig & ((1 << shift) - 1)
            half = 1 << (shift - 1)
            if remainder > half or (remainder == half and q & 1):
                q += 1
        if q == 0:
            return self.zero(sign)
        while q.bit_length() > fmt.sb:  # rounding overflowed the quantum
            if q & 1:
                raise AssertionError("inexact renormalisation")
            q >>= 1
            quantum += 1
        if q.bit_length() < fmt.sb:
            # subnormal: quantum is pinned at emin - mbits
            return self.pack(sign, 0, q)
        new_exp = quantum + self._mbits
        if new_exp > fmt.emax:
            return self.inf(sign)  # RNE overflow goes to infinity
        return self.pack(sign, new_exp + fmt.bias, q & self._mmask)

    # ------------------------------------------------------------------
    # arithmetic (RNE)
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.is_nan(a) or self.is_nan(b):
            return self.nan()
        if self.is_inf(a) or self.is_inf(b):
            if self.is_inf(a) and self.is_inf(b):
                if self.unpack(a)[0] != self.unpack(b)[0]:
                    return self.nan()  # inf + -inf
                return a
            return a if self.is_inf(a) else b
        sa, ea, ga = self.decompose(a)
        sb_, eb_, gb = self.decompose(b)
        exp = min(ea, eb_)
        va = (ga << (ea - exp)) * (-1 if sa else 1)
        vb = (gb << (eb_ - exp)) * (-1 if sb_ else 1)
        total = va + vb
        if total == 0:
            # Exact cancellation: RNE gives +0 unless both addends are -0.
            if self.is_zero(a) and self.is_zero(b) and sa == 1 and sb_ == 1:
                return self.zero(1)
            return self.zero(0)
        sign = 1 if total < 0 else 0
        return self.round_pack(sign, exp, abs(total))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.is_nan(a) or self.is_nan(b):
            return self.nan()
        sign = self.unpack(a)[0] ^ self.unpack(b)[0]
        if self.is_inf(a) or self.is_inf(b):
            if self.is_zero(a) or self.is_zero(b):
                return self.nan()  # inf * 0
            return self.inf(sign)
        if self.is_zero(a) or self.is_zero(b):
            return self.zero(sign)
        _, ea, ga = self.decompose(a)
        _, eb_, gb = self.decompose(b)
        return self.round_pack(sign, ea + eb_, ga * gb)

    def neg(self, a: int) -> int:
        """Flip the sign bit (applies to NaN too, per SMT-LIB fp.neg)."""
        return a ^ (1 << (self.fmt.total_width - 1))

    def abs_(self, a: int) -> int:
        return a & ~(1 << (self.fmt.total_width - 1))

    def min_(self, a: int, b: int) -> int:
        """SMT-LIB fp.min; min(+0, -0) resolved to -0 (documented choice)."""
        if self.is_nan(a):
            return b
        if self.is_nan(b):
            return a
        if self.is_zero(a) and self.is_zero(b):
            return a if self.unpack(a)[0] else b
        return a if self.compare(a, b) <= 0 else b

    def max_(self, a: int, b: int) -> int:
        """SMT-LIB fp.max; max(+0, -0) resolved to +0 (documented choice)."""
        if self.is_nan(a):
            return b
        if self.is_nan(b):
            return a
        if self.is_zero(a) and self.is_zero(b):
            return b if self.unpack(a)[0] else a
        return a if self.compare(a, b) >= 0 else b

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def compare(self, a: int, b: int) -> int | None:
        """-1, 0, 1 for ordered values; None if either operand is NaN."""
        if self.is_nan(a) or self.is_nan(b):
            return None
        a_inf, b_inf = self.is_inf(a), self.is_inf(b)
        sa, sb_ = self.unpack(a)[0], self.unpack(b)[0]
        if a_inf or b_inf:
            if a_inf and b_inf:
                return 0 if sa == sb_ else (-1 if sa else 1)
            if a_inf:
                return -1 if sa else 1
            return 1 if sb_ else -1
        fa, fb = self.to_fraction(a), self.to_fraction(b)
        if fa < fb:
            return -1
        if fa > fb:
            return 1
        return 0

    def eq(self, a: int, b: int) -> bool:
        """fp.eq: IEEE equality (NaN != NaN, -0 == +0)."""
        result = self.compare(a, b)
        return result == 0

    def lt(self, a: int, b: int) -> bool:
        result = self.compare(a, b)
        return result is not None and result < 0

    def leq(self, a: int, b: int) -> bool:
        result = self.compare(a, b)
        return result is not None and result <= 0

    # ------------------------------------------------------------------
    # host-float interop (Float32/Float64 only; used by tests/examples)
    # ------------------------------------------------------------------
    def from_python(self, value: float) -> int:
        if self.fmt == FLOAT64:
            return struct.unpack("<Q", struct.pack("<d", value))[0]
        if self.fmt == FLOAT32:
            return struct.unpack("<I", struct.pack("<f", value))[0]
        raise ValueError("from_python supports Float32/Float64 only")

    def to_python(self, bits: int) -> float:
        if self.fmt == FLOAT64:
            return struct.unpack("<d", struct.pack("<Q", bits))[0]
        if self.fmt == FLOAT32:
            return struct.unpack("<f", struct.pack("<I", bits))[0]
        raise ValueError("to_python supports Float32/Float64 only")

    def from_fraction(self, value: Fraction | int | float) -> int:
        """Round an exact rational to this format (RNE)."""
        value = Fraction(value)
        if value == 0:
            return self.zero(0)
        sign = 1 if value < 0 else 0
        magnitude = abs(value)
        num, den = magnitude.numerator, magnitude.denominator
        # Scale so that the integer significand has ample precision.
        extra = self.fmt.sb + den.bit_length() + 4
        sig = (num << extra) // den
        exact = (num << extra) == sig * den
        if not exact:
            # Sticky bit: the true value is strictly above sig, so force
            # apparent ties in round_pack to round up.  The 4 slack bits in
            # `extra` keep bit 0 well below the rounding boundary.
            sig |= 1
        return self.round_pack(sign, -extra, sig)

    def __repr__(self) -> str:
        return f"SoftFloat({self.fmt!r})"
