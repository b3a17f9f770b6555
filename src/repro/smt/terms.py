"""Hash-consed SMT terms and their construction API.

Terms form an immutable DAG.  Structurally identical terms are interned, so
``t1 is t2`` holds exactly when the terms are equal — dictionaries keyed by
terms (bit-blasting memos, model assignments) are therefore O(1) on
identity.

The intern table holds terms weakly: a term lives while something
references it (a problem, an artifact, a memo, a solver, a caller), and
the table forgets it when the last reference goes, so a long-lived
process's heap follows the problems it still holds, not every problem it
has seen.  Identity holds among live terms: rebuilding a collected term
gives a fresh object with a fresh ``term_id``, and every live copy
shares it.  Ids are never reused, so a table key naming a collected
child can never match a term built from live ones.

Python's ``==`` on terms is identity (``__eq__`` is *not* overloaded to
build equations — that breaks dict semantics); build equations with
:func:`Equals` or ``t.eq(other)``.  Arithmetic and bitwise operators *are*
overloaded for the unambiguous cases (``x + y``, ``x & y``, ``~x``, ...).
"""

from __future__ import annotations

import threading
import weakref
from fractions import Fraction
from typing import Iterable, Sequence

from repro.errors import SortError
from repro.smt.ops import Op
from repro.smt.sorts import (
    ArraySort, ArraySortClass, BitVecSort, BoolSort,
    FunctionSort, FunctionSortClass, RealSort, Sort,
)

# Keyed by (op, payload, params, child term_ids, id(sort)): sorts are
# interned strongly, so id(sort) is stable, and term_ids are monotonic,
# so a key can name only the children of its own (live) term.
_interned: weakref.WeakValueDictionary[tuple, "Term"] = (
    weakref.WeakValueDictionary())
_intern_lock = threading.Lock()
_next_id = [0]


class Term:
    """A node of the term DAG.  Construct via the module-level builders."""

    __slots__ = ("op", "args", "sort", "payload", "params", "term_id",
                 "__weakref__")

    def __init__(self, op: str, args: tuple["Term", ...], sort: Sort,
                 payload=None, params: tuple = ()):
        self.op = op
        self.args = args
        self.sort = sort
        self.payload = payload
        self.params = params
        _next_id[0] += 1
        self.term_id = _next_id[0]

    # -- inspection ----------------------------------------------------
    def is_var(self) -> bool:
        return self.op == Op.VAR

    def is_const(self) -> bool:
        return self.op in (Op.BOOL_CONST, Op.BV_CONST, Op.REAL_CONST,
                           Op.FP_CONST)

    @property
    def name(self) -> str:
        if self.op != Op.VAR:
            raise ValueError(f"{self.op} term has no name")
        return self.payload

    @property
    def value(self):
        if not self.is_const():
            raise ValueError(f"{self.op} term has no constant value")
        return self.payload

    @property
    def width(self) -> int:
        if not self.sort.is_bv():
            raise SortError(f"width of non-bitvector term {self!r}")
        return self.sort.width

    def __hash__(self) -> int:
        return self.term_id

    def __repr__(self) -> str:
        if self.op == Op.VAR:
            return f"Term({self.payload}:{self.sort!r})"
        if self.is_const():
            return f"Term({self.payload!r}:{self.sort!r})"
        inner = " ".join(repr(a) for a in self.args)
        return f"Term(({self.op} {inner}))"

    # -- convenience builders ------------------------------------------
    def eq(self, other: "Term") -> "Term":
        return Equals(self, other)

    def neq(self, other: "Term") -> "Term":
        return Not(Equals(self, other))

    # overloaded arithmetic, dispatched on sort
    def __add__(self, other):
        other = _coerce(other, self.sort)
        if self.sort.is_bv():
            return bv_add(self, other)
        if self.sort.is_real():
            return real_add(self, other)
        raise SortError(f"+ not defined on {self.sort!r}")

    def __sub__(self, other):
        other = _coerce(other, self.sort)
        if self.sort.is_bv():
            return bv_sub(self, other)
        if self.sort.is_real():
            return real_sub(self, other)
        raise SortError(f"- not defined on {self.sort!r}")

    def __mul__(self, other):
        other = _coerce(other, self.sort)
        if self.sort.is_bv():
            return bv_mul(self, other)
        if self.sort.is_real():
            return real_mul(self, other)
        raise SortError(f"* not defined on {self.sort!r}")

    def __and__(self, other):
        if self.sort.is_bool():
            return And(self, other)
        return bv_and(self, _coerce(other, self.sort))

    def __or__(self, other):
        if self.sort.is_bool():
            return Or(self, other)
        return bv_or(self, _coerce(other, self.sort))

    def __xor__(self, other):
        if self.sort.is_bool():
            return Xor(self, other)
        return bv_xor(self, _coerce(other, self.sort))

    def __invert__(self):
        if self.sort.is_bool():
            return Not(self)
        return bv_not(self)

    def __neg__(self):
        if self.sort.is_bv():
            return bv_neg(self)
        if self.sort.is_real():
            return real_neg(self)
        raise SortError(f"unary - not defined on {self.sort!r}")

    def __lshift__(self, other):
        return bv_shl(self, _coerce(other, self.sort))

    def __rshift__(self, other):
        return bv_lshr(self, _coerce(other, self.sort))

    # comparisons (unsigned for BV; use .slt/.sle for signed)
    def __lt__(self, other):
        other = _coerce(other, self.sort)
        if self.sort.is_bv():
            return bv_ult(self, other)
        if self.sort.is_real():
            return real_lt(self, other)
        raise SortError(f"< not defined on {self.sort!r}")

    def __le__(self, other):
        other = _coerce(other, self.sort)
        if self.sort.is_bv():
            return bv_ule(self, other)
        if self.sort.is_real():
            return real_le(self, other)
        raise SortError(f"<= not defined on {self.sort!r}")

    def __gt__(self, other):
        other = _coerce(other, self.sort)
        return other.__lt__(self)

    def __ge__(self, other):
        other = _coerce(other, self.sort)
        return other.__le__(self)

    def ult(self, other):
        return bv_ult(self, _coerce(other, self.sort))

    def ule(self, other):
        return bv_ule(self, _coerce(other, self.sort))

    def slt(self, other):
        return bv_slt(self, _coerce(other, self.sort))

    def sle(self, other):
        return bv_sle(self, _coerce(other, self.sort))


def _coerce(value, sort: Sort) -> Term:
    """Allow plain ints/Fractions where a term of ``sort`` is expected."""
    if isinstance(value, Term):
        return value
    if sort.is_bv() and isinstance(value, int):
        return bv_val(value, sort.width)
    if sort.is_real() and isinstance(value, (int, Fraction)):
        return real_val(value)
    raise SortError(f"cannot coerce {value!r} to {sort!r}")


def _mk(op: str, args: tuple[Term, ...], sort: Sort, payload=None,
        params: tuple = ()) -> Term:
    key = (op, payload, params, tuple(a.term_id for a in args), id(sort))
    term = _interned.get(key)
    if term is None:
        # The lock keeps interning correct when the engine's thread
        # backend constructs terms concurrently: without it two threads
        # can race the check above, allocate duplicate term_ids and
        # break the identity guarantee (`t1 is t2` iff equal).
        with _intern_lock:
            term = _interned.get(key)
            if term is None:
                term = Term(op, args, sort, payload, params)
                _interned[key] = term
    return term


def term_count() -> int:
    """Number of live interned terms (diagnostics)."""
    return len(_interned)


# ----------------------------------------------------------------------
# variables and constants
# ----------------------------------------------------------------------
def bool_var(name: str) -> Term:
    return _mk(Op.VAR, (), BoolSort(), payload=name)


def bv_var(name: str, width: int) -> Term:
    return _mk(Op.VAR, (), BitVecSort(width), payload=name)


def real_var(name: str) -> Term:
    return _mk(Op.VAR, (), RealSort(), payload=name)


def fp_var(name: str, eb: int, sb: int) -> Term:
    from repro.smt.sorts import FloatSort
    return _mk(Op.VAR, (), FloatSort(eb, sb), payload=name)


def array_var(name: str, index_sort: Sort, element_sort: Sort) -> Term:
    return _mk(Op.VAR, (), ArraySort(index_sort, element_sort), payload=name)


def uf(name: str, domain: Sequence[Sort], codomain: Sort) -> Term:
    """Declare an uninterpreted function symbol."""
    return _mk(Op.VAR, (), FunctionSort(tuple(domain), codomain),
               payload=name)


TRUE = _mk(Op.BOOL_CONST, (), BoolSort(), payload=True)
FALSE = _mk(Op.BOOL_CONST, (), BoolSort(), payload=False)


def bool_val(value: bool) -> Term:
    return TRUE if value else FALSE


def bv_val(value: int, width: int) -> Term:
    """Bit-vector constant; ``value`` is reduced modulo 2^width."""
    return _mk(Op.BV_CONST, (), BitVecSort(width),
               payload=value & ((1 << width) - 1))


def real_val(value: int | Fraction | str) -> Term:
    return _mk(Op.REAL_CONST, (), RealSort(), payload=Fraction(value))


def fp_val(bits: int, eb: int, sb: int) -> Term:
    """FP constant from its packed IEEE bit pattern."""
    from repro.smt.sorts import FloatSort
    sort = FloatSort(eb, sb)
    mask = (1 << sort.total_width) - 1
    return _mk(Op.FP_CONST, (), sort, payload=bits & mask)


# ----------------------------------------------------------------------
# core / booleans
# ----------------------------------------------------------------------
def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SortError(message)


def Equals(a: Term, b: Term) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort is b.sort, f"= over distinct sorts {a.sort!r}, {b.sort!r}")
    if a.sort.is_fp():
        raise SortError("use fp_eq for floating-point equality semantics")
    return _mk(Op.EQ, (a, b), BoolSort())


def _promote_pair(a, b) -> tuple[Term, Term]:
    if isinstance(a, Term) and not isinstance(b, Term):
        return a, _coerce(b, a.sort)
    if isinstance(b, Term) and not isinstance(a, Term):
        return _coerce(a, b.sort), b
    return a, b


def Distinct(*terms: Term) -> Term:
    _require(len(terms) >= 2, "distinct needs >= 2 arguments")
    first = terms[0].sort
    _require(all(t.sort is first for t in terms), "distinct over mixed sorts")
    return _mk(Op.DISTINCT, tuple(terms), BoolSort())


def Ite(cond: Term, then: Term, els: Term) -> Term:
    _require(cond.sort.is_bool(), "ite condition must be Bool")
    then, els = _promote_pair(then, els)
    _require(then.sort is els.sort, "ite branches of different sorts")
    return _mk(Op.ITE, (cond, then, els), then.sort)


def Not(a: Term) -> Term:
    _require(a.sort.is_bool(), "not over non-Bool")
    return _mk(Op.NOT, (a,), BoolSort())


def _nary_bool(op: str, terms: tuple[Term, ...]) -> Term:
    _require(all(t.sort.is_bool() for t in terms), f"{op} over non-Bool")
    return _mk(op, terms, BoolSort())


def And(*terms: Term) -> Term:
    flat = _flatten(terms)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return _nary_bool(Op.AND, flat)


def Or(*terms: Term) -> Term:
    flat = _flatten(terms)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return _nary_bool(Op.OR, flat)


def _flatten(terms) -> tuple[Term, ...]:
    out: list[Term] = []
    for t in terms:
        if isinstance(t, (list, tuple)):
            out.extend(t)
        else:
            out.append(t)
    return tuple(out)


def Xor(a: Term, b: Term) -> Term:
    return _nary_bool(Op.XOR, (a, b))


def Implies(a: Term, b: Term) -> Term:
    return _nary_bool(Op.IMPLIES, (a, b))


def Iff(a: Term, b: Term) -> Term:
    _require(a.sort.is_bool() and b.sort.is_bool(), "iff over non-Bool")
    return _mk(Op.EQ, (a, b), BoolSort())


# ----------------------------------------------------------------------
# bit-vectors
# ----------------------------------------------------------------------
def _bv_binary(op: str, a: Term, b: Term) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort.is_bv() and a.sort is b.sort,
             f"{op} needs equal-width bit-vectors")
    return _mk(op, (a, b), a.sort)


def _bv_predicate(op: str, a: Term, b: Term) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort.is_bv() and a.sort is b.sort,
             f"{op} needs equal-width bit-vectors")
    return _mk(op, (a, b), BoolSort())


def bv_add(a, b):
    return _bv_binary(Op.BV_ADD, a, b)


def bv_sub(a, b):
    return _bv_binary(Op.BV_SUB, a, b)


def bv_mul(a, b):
    return _bv_binary(Op.BV_MUL, a, b)


def bv_udiv(a, b):
    return _bv_binary(Op.BV_UDIV, a, b)


def bv_urem(a, b):
    return _bv_binary(Op.BV_UREM, a, b)


def bv_sdiv(a, b):
    return _bv_binary(Op.BV_SDIV, a, b)


def bv_srem(a, b):
    return _bv_binary(Op.BV_SREM, a, b)


def bv_and(a, b):
    return _bv_binary(Op.BV_AND, a, b)


def bv_or(a, b):
    return _bv_binary(Op.BV_OR, a, b)


def bv_xor(a, b):
    return _bv_binary(Op.BV_XOR, a, b)


def bv_shl(a, b):
    return _bv_binary(Op.BV_SHL, a, b)


def bv_lshr(a, b):
    return _bv_binary(Op.BV_LSHR, a, b)


def bv_ashr(a, b):
    return _bv_binary(Op.BV_ASHR, a, b)


def bv_not(a: Term) -> Term:
    _require(a.sort.is_bv(), "bvnot over non-bitvector")
    return _mk(Op.BV_NOT, (a,), a.sort)


def bv_neg(a: Term) -> Term:
    _require(a.sort.is_bv(), "bvneg over non-bitvector")
    return _mk(Op.BV_NEG, (a,), a.sort)


def bv_ult(a, b):
    return _bv_predicate(Op.BV_ULT, a, b)


def bv_ule(a, b):
    return _bv_predicate(Op.BV_ULE, a, b)


def bv_slt(a, b):
    return _bv_predicate(Op.BV_SLT, a, b)


def bv_sle(a, b):
    return _bv_predicate(Op.BV_SLE, a, b)


def bv_concat(*parts: Term) -> Term:
    """Concatenate bit-vectors; parts[0] holds the most significant bits."""
    _require(len(parts) >= 1, "concat of nothing")
    _require(all(p.sort.is_bv() for p in parts), "concat of non-bitvectors")
    if len(parts) == 1:
        return parts[0]
    total = sum(p.sort.width for p in parts)
    result = parts[0]
    for part in parts[1:]:
        width = result.sort.width + part.sort.width
        result = _mk(Op.BV_CONCAT, (result, part), BitVecSort(width))
    assert result.sort.width == total
    return result


def bv_extract(a: Term, hi: int, lo: int) -> Term:
    _require(a.sort.is_bv(), "extract over non-bitvector")
    _require(0 <= lo <= hi < a.sort.width,
             f"extract [{hi}:{lo}] out of range for width {a.sort.width}")
    return _mk(Op.BV_EXTRACT, (a,), BitVecSort(hi - lo + 1),
               params=(hi, lo))


def bv_zero_extend(a: Term, k: int) -> Term:
    _require(a.sort.is_bv() and k >= 0, "bad zero_extend")
    if k == 0:
        return a
    return _mk(Op.BV_ZERO_EXTEND, (a,), BitVecSort(a.sort.width + k),
               params=(k,))


def bv_sign_extend(a: Term, k: int) -> Term:
    _require(a.sort.is_bv() and k >= 0, "bad sign_extend")
    if k == 0:
        return a
    return _mk(Op.BV_SIGN_EXTEND, (a,), BitVecSort(a.sort.width + k),
               params=(k,))


# ----------------------------------------------------------------------
# reals
# ----------------------------------------------------------------------
def _real_binary(op: str, a, b) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort.is_real() and b.sort.is_real(),
             f"{op} needs real operands")
    return _mk(op, (a, b), RealSort())


def real_add(a, b):
    return _real_binary(Op.REAL_ADD, a, b)


def real_sub(a, b):
    return _real_binary(Op.REAL_SUB, a, b)


def real_mul(a, b):
    return _real_binary(Op.REAL_MUL, a, b)


def real_div(a, b):
    return _real_binary(Op.REAL_DIV, a, b)


def real_neg(a: Term) -> Term:
    _require(a.sort.is_real(), "real negation of non-real")
    return _mk(Op.REAL_NEG, (a,), RealSort())


def real_le(a, b) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort.is_real() and b.sort.is_real(), "<= needs reals")
    return _mk(Op.REAL_LE, (a, b), BoolSort())


def real_lt(a, b) -> Term:
    a, b = _promote_pair(a, b)
    _require(a.sort.is_real() and b.sort.is_real(), "< needs reals")
    return _mk(Op.REAL_LT, (a, b), BoolSort())


def real_ge(a, b) -> Term:
    return real_le(b, a)


def real_gt(a, b) -> Term:
    return real_lt(b, a)


# ----------------------------------------------------------------------
# floating point
# ----------------------------------------------------------------------
def _fp_args(op: str, terms: Iterable[Term]) -> tuple[Term, ...]:
    terms = tuple(terms)
    _require(all(t.sort.is_fp() for t in terms), f"{op} needs FP operands")
    first = terms[0].sort
    _require(all(t.sort is first for t in terms), f"{op} over mixed FP sorts")
    return terms


def fp_eq(a: Term, b: Term) -> Term:
    return _mk(Op.FP_EQ, _fp_args(Op.FP_EQ, (a, b)), BoolSort())


def fp_lt(a: Term, b: Term) -> Term:
    return _mk(Op.FP_LT, _fp_args(Op.FP_LT, (a, b)), BoolSort())


def fp_leq(a: Term, b: Term) -> Term:
    return _mk(Op.FP_LEQ, _fp_args(Op.FP_LEQ, (a, b)), BoolSort())


def fp_gt(a: Term, b: Term) -> Term:
    return fp_lt(b, a)


def fp_geq(a: Term, b: Term) -> Term:
    return fp_leq(b, a)


def fp_abs(a: Term) -> Term:
    return _mk(Op.FP_ABS, _fp_args(Op.FP_ABS, (a,)), a.sort)


def fp_neg(a: Term) -> Term:
    return _mk(Op.FP_NEG, _fp_args(Op.FP_NEG, (a,)), a.sort)


def fp_add(a: Term, b: Term) -> Term:
    """fp.add with RNE rounding (the only supported rounding mode)."""
    return _mk(Op.FP_ADD, _fp_args(Op.FP_ADD, (a, b)), a.sort)


def fp_sub(a: Term, b: Term) -> Term:
    return _mk(Op.FP_SUB, _fp_args(Op.FP_SUB, (a, b)), a.sort)


def fp_mul(a: Term, b: Term) -> Term:
    return _mk(Op.FP_MUL, _fp_args(Op.FP_MUL, (a, b)), a.sort)


def fp_min(a: Term, b: Term) -> Term:
    return _mk(Op.FP_MIN, _fp_args(Op.FP_MIN, (a, b)), a.sort)


def fp_max(a: Term, b: Term) -> Term:
    return _mk(Op.FP_MAX, _fp_args(Op.FP_MAX, (a, b)), a.sort)


def _fp_predicate(op: str, a: Term) -> Term:
    _require(a.sort.is_fp(), f"{op} over non-FP")
    return _mk(op, (a,), BoolSort())


def fp_is_nan(a):
    return _fp_predicate(Op.FP_IS_NAN, a)


def fp_is_inf(a):
    return _fp_predicate(Op.FP_IS_INF, a)


def fp_is_zero(a):
    return _fp_predicate(Op.FP_IS_ZERO, a)


def fp_is_normal(a):
    return _fp_predicate(Op.FP_IS_NORMAL, a)


def fp_is_subnormal(a):
    return _fp_predicate(Op.FP_IS_SUBNORMAL, a)


def fp_is_negative(a):
    return _fp_predicate(Op.FP_IS_NEG, a)


def fp_is_positive(a):
    return _fp_predicate(Op.FP_IS_POS, a)


def fp_to_bv(a: Term) -> Term:
    """Expose the IEEE bit pattern of an FP term (fp.to_ieee_bv)."""
    _require(a.sort.is_fp(), "fp_to_bv over non-FP")
    return _mk(Op.FP_TO_BV, (a,), BitVecSort(a.sort.total_width))


def fp_from_bv(a: Term, eb: int, sb: int) -> Term:
    """Reinterpret an IEEE bit pattern as a floating-point value."""
    from repro.smt.sorts import FloatSort
    sort = FloatSort(eb, sb)
    _require(a.sort.is_bv() and a.sort.width == sort.total_width,
             f"fp_from_bv needs a {sort.total_width}-bit vector")
    return _mk(Op.FP_FROM_BV, (a,), sort)


# ----------------------------------------------------------------------
# arrays and uninterpreted functions
# ----------------------------------------------------------------------
def select(array: Term, index: Term) -> Term:
    _require(array.sort.is_array(), "select on non-array")
    sort: ArraySortClass = array.sort
    _require(index.sort is sort.index, "select index sort mismatch")
    return _mk(Op.SELECT, (array, index), sort.element)


def store(array: Term, index: Term, value: Term) -> Term:
    _require(array.sort.is_array(), "store on non-array")
    sort: ArraySortClass = array.sort
    _require(index.sort is sort.index, "store index sort mismatch")
    _require(value.sort is sort.element, "store value sort mismatch")
    return _mk(Op.STORE, (array, index, value), array.sort)


def apply_uf(function: Term, *args: Term) -> Term:
    _require(function.sort.is_function(), "apply on non-function")
    sort: FunctionSortClass = function.sort
    _require(len(args) == len(sort.domain),
             f"{function!r} expects {len(sort.domain)} arguments")
    for arg, expected in zip(args, sort.domain):
        _require(arg.sort is expected, "UF argument sort mismatch")
    return _mk(Op.APPLY, (function,) + tuple(args), sort.codomain)
