"""Term-level FP -> BV encoding (the solver-side FP semantics).

Every floating-point subterm is translated into bit-vector terms over the
packed IEEE representation, which the eager bit-blaster then turns into
CNF — the same architecture CVC5 uses via SymFPU.  Supported: literals,
variables, classification predicates, comparisons, abs/neg/min/max, and
add/sub/mul with RNE rounding including subnormals and correct
special-value handling.  Division, sqrt, fma and non-RNE rounding raise
:class:`UnsupportedFeatureError` (DESIGN.md section 7).

The arithmetic pipeline mirrors :mod:`softfloat` exactly: operands are
decomposed into (sign, lsb-weight exponent, integer significand), combined
exactly in wide bit-vectors, then rounded once by a generic
round-and-pack circuit.  The test suite drives both implementations over
the same inputs and requires bit-identical outputs.
"""

from __future__ import annotations

from repro.errors import UnsupportedFeatureError
from repro.smt.ops import Op
from repro.smt.sorts import (
    ArraySort, BitVecSort, FloatSortClass, FunctionSort, Sort,
)
from repro.smt.terms import (
    And, Distinct, Equals, FALSE, Iff, Ite, Not, Or, Term, Xor,
    apply_uf, array_var, bv_add, bv_concat, bv_extract, bv_lshr,
    bv_mul, bv_neg, bv_shl, bv_slt, bv_sub, bv_ule, bv_ult, bv_val, bv_var,
    bv_xor, bv_zero_extend, select, store, uf, _mk,
)


def convert_sort(sort: Sort) -> Sort:
    """Map FP sorts (recursively, through arrays/functions) to BV sorts."""
    if sort.is_fp():
        return BitVecSort(sort.total_width)
    if sort.is_array():
        return ArraySort(convert_sort(sort.index),
                         convert_sort(sort.element))
    if sort.is_function():
        return FunctionSort(tuple(convert_sort(s) for s in sort.domain),
                            convert_sort(sort.codomain))
    return sort


class _Format:
    """Pre-computed constants for one FP format."""

    def __init__(self, sort: FloatSortClass):
        self.eb = sort.eb
        self.sb = sort.sb
        self.mbits = sort.sb - 1
        self.width = sort.total_width
        self.bias = (1 << (sort.eb - 1)) - 1
        self.emin = 1 - self.bias
        self.emax = self.bias
        # signed exponent working width, with generous slack
        self.we = (4 * (self.bias + 2 * self.sb) + 8).bit_length() + 2


def _per_operand(helper):
    """Memoise ``helper(self, fmt, x)`` in the encoder by (helper, format,
    operand): an operand's fields and predicates are built once, not once
    per FP operation that uses them."""
    def memoised(self, fmt: _Format, x: Term) -> Term:
        key = (helper, fmt.eb, fmt.sb, x)
        term = self._operand_terms.get(key)
        if term is None:
            term = self._operand_terms[key] = helper(self, fmt, x)
        return term
    return memoised


class FpEncoder:
    """Translates whole term DAGs, eliminating the FP theory."""

    def __init__(self):
        self._cache: dict[Term, Term] = {}
        self._operand_terms: dict[tuple, Term] = {}  # see _per_operand
        # original FP/array/function variable -> converted variable
        self.var_map: dict[Term, Term] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def encode(self, term: Term) -> Term:
        cached = self._cache.get(term)
        if cached is not None:
            return cached
        stack = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in self._cache:
                continue
            if not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if arg not in self._cache:
                        stack.append((arg, False))
                continue
            args = tuple(self._cache[a] for a in node.args)
            self._cache[node] = self._encode_node(node, args)
        return self._cache[term]

    # ------------------------------------------------------------------
    # node dispatch
    # ------------------------------------------------------------------
    def _encode_node(self, node: Term, args: tuple[Term, ...]) -> Term:
        op = node.op

        if op == Op.VAR:
            converted_sort = convert_sort(node.sort)
            if converted_sort is node.sort:
                return node
            if node.sort.is_fp():
                replacement = bv_var(node.name, converted_sort.width)
            elif node.sort.is_array():
                replacement = array_var(node.name, converted_sort.index,
                                        converted_sort.element)
            else:
                replacement = uf(node.name, converted_sort.domain,
                                 converted_sort.codomain)
            self.var_map[node] = replacement
            return replacement

        if op == Op.FP_CONST:
            return bv_val(node.payload, node.sort.total_width)
        if op in (Op.FP_FROM_BV, Op.FP_TO_BV):
            return args[0]

        if op.startswith("fp."):
            fmt = _Format(node.args[0].sort)
            return self._encode_fp_op(op, fmt, args)

        # Rebuild non-FP nodes over converted children (sorts of select /
        # store / apply / ite may have changed element sorts).
        if args == node.args:
            return node
        return self._rebuild(node, args)

    def _rebuild(self, node: Term, args: tuple[Term, ...]) -> Term:
        op = node.op
        if op == Op.SELECT:
            return select(args[0], args[1])
        if op == Op.STORE:
            return store(args[0], args[1], args[2])
        if op == Op.APPLY:
            return apply_uf(args[0], *args[1:])
        if op == Op.ITE:
            return Ite(args[0], args[1], args[2])
        if op == Op.EQ:
            return Equals(args[0], args[1])
        if op == Op.DISTINCT:
            return Distinct(*args)
        # remaining operators keep their sorts; rebuild generically
        return _mk(op, args, node.sort, node.payload, node.params)

    # ------------------------------------------------------------------
    # FP operator encodings (operands already translated to packed BV)
    # ------------------------------------------------------------------
    def _encode_fp_op(self, op: str, fmt: _Format,
                      args: tuple[Term, ...]) -> Term:
        if op == Op.FP_EQ:
            return self._eq(fmt, args[0], args[1])
        if op == Op.FP_LT:
            return self._lt(fmt, args[0], args[1])
        if op == Op.FP_LEQ:
            return Or(self._lt(fmt, args[0], args[1]),
                      self._eq(fmt, args[0], args[1]))
        if op == Op.FP_ABS:
            return bv_concat(bv_val(0, 1),
                             bv_extract(args[0], fmt.width - 2, 0))
        if op == Op.FP_NEG:
            return self._negate(fmt, args[0])
        if op == Op.FP_IS_NAN:
            return self._is_nan(fmt, args[0])
        if op == Op.FP_IS_INF:
            return self._is_inf(fmt, args[0])
        if op == Op.FP_IS_ZERO:
            return self._is_zero(fmt, args[0])
        if op == Op.FP_IS_NORMAL:
            e = self._efield(fmt, args[0])
            return And(e.neq(bv_val(0, fmt.eb)),
                       e.neq(self._eones(fmt)))
        if op == Op.FP_IS_SUBNORMAL:
            return And(
                Equals(self._efield(fmt, args[0]), bv_val(0, fmt.eb)),
                self._mfield(fmt, args[0]).neq(bv_val(0, fmt.mbits)))
        if op == Op.FP_IS_NEG:
            return And(Not(self._is_nan(fmt, args[0])),
                       self._sign(fmt, args[0]))
        if op == Op.FP_IS_POS:
            return And(Not(self._is_nan(fmt, args[0])),
                       Not(self._sign(fmt, args[0])))
        if op == Op.FP_MIN:
            return self._min_max(fmt, args[0], args[1], is_min=True)
        if op == Op.FP_MAX:
            return self._min_max(fmt, args[0], args[1], is_min=False)
        if op == Op.FP_ADD:
            return self._add(fmt, args[0], args[1])
        if op == Op.FP_SUB:
            return self._add(fmt, args[0], self._negate(fmt, args[1]))
        if op == Op.FP_MUL:
            return self._mul(fmt, args[0], args[1])
        raise UnsupportedFeatureError(f"FP operator {op} not encodable")

    # ---- field helpers -------------------------------------------------
    @_per_operand
    def _sign(self, fmt: _Format, x: Term) -> Term:
        return Equals(bv_extract(x, fmt.width - 1, fmt.width - 1),
                      bv_val(1, 1))

    @_per_operand
    def _efield(self, fmt: _Format, x: Term) -> Term:
        return bv_extract(x, fmt.width - 2, fmt.mbits)

    @_per_operand
    def _mfield(self, fmt: _Format, x: Term) -> Term:
        return bv_extract(x, fmt.mbits - 1, 0)

    @_per_operand
    def _magnitude(self, fmt: _Format, x: Term) -> Term:
        """exponent:mantissa as an unsigned key (IEEE ordering trick)."""
        return bv_extract(x, fmt.width - 2, 0)

    def _eones(self, fmt: _Format) -> Term:
        return bv_val((1 << fmt.eb) - 1, fmt.eb)

    @_per_operand
    def _is_nan(self, fmt: _Format, x: Term) -> Term:
        return And(Equals(self._efield(fmt, x), self._eones(fmt)),
                   self._mfield(fmt, x).neq(bv_val(0, fmt.mbits)))

    def _is_inf(self, fmt: _Format, x: Term) -> Term:
        return And(Equals(self._efield(fmt, x), self._eones(fmt)),
                   Equals(self._mfield(fmt, x), bv_val(0, fmt.mbits)))

    @_per_operand
    def _is_zero(self, fmt: _Format, x: Term) -> Term:
        return Equals(self._magnitude(fmt, x), bv_val(0, fmt.width - 1))

    def _negate(self, fmt: _Format, x: Term) -> Term:
        return bv_xor(x, bv_val(1 << (fmt.width - 1), fmt.width))

    def _nan_const(self, fmt: _Format) -> Term:
        bits = ((1 << fmt.eb) - 1) << fmt.mbits | (1 << (fmt.mbits - 1))
        return bv_val(bits, fmt.width)

    def _inf_const(self, fmt: _Format, sign: int) -> Term:
        bits = ((1 << fmt.eb) - 1) << fmt.mbits
        if sign:
            bits |= 1 << (fmt.width - 1)
        return bv_val(bits, fmt.width)

    def _zero_of(self, fmt: _Format, sign: Term) -> Term:
        """Packed zero with a symbolic sign (Bool term)."""
        return Ite(sign,
                   bv_val(1 << (fmt.width - 1), fmt.width),
                   bv_val(0, fmt.width))

    # ---- comparisons -----------------------------------------------------
    def _eq(self, fmt: _Format, a: Term, b: Term) -> Term:
        ordered = And(Not(self._is_nan(fmt, a)), Not(self._is_nan(fmt, b)))
        both_zero = And(self._is_zero(fmt, a), self._is_zero(fmt, b))
        return And(ordered, Or(both_zero, Equals(a, b)))

    def _lt(self, fmt: _Format, a: Term, b: Term) -> Term:
        ordered = And(Not(self._is_nan(fmt, a)), Not(self._is_nan(fmt, b)))
        both_zero = And(self._is_zero(fmt, a), self._is_zero(fmt, b))
        sa, sb_ = self._sign(fmt, a), self._sign(fmt, b)
        mag_a, mag_b = self._magnitude(fmt, a), self._magnitude(fmt, b)
        strictly = Or(
            And(sa, Not(sb_)),
            And(sa, sb_, bv_ult(mag_b, mag_a)),
            And(Not(sa), Not(sb_), bv_ult(mag_a, mag_b)),
        )
        return And(ordered, Not(both_zero), strictly)

    def _min_max(self, fmt: _Format, a: Term, b: Term, is_min: bool) -> Term:
        both_zero = And(self._is_zero(fmt, a), self._is_zero(fmt, b))
        sa = self._sign(fmt, a)
        if is_min:
            zero_pick = Ite(sa, a, b)    # prefer -0
            order_pick = Ite(Or(self._lt(fmt, a, b), self._eq(fmt, a, b)),
                             a, b)
        else:
            zero_pick = Ite(sa, b, a)    # prefer +0
            order_pick = Ite(Or(self._lt(fmt, b, a), self._eq(fmt, a, b)),
                             a, b)
        general = Ite(both_zero, zero_pick, order_pick)
        return Ite(self._is_nan(fmt, a), b,
                   Ite(self._is_nan(fmt, b), a, general))

    # ---- decomposition ----------------------------------------------------
    def _signed_const(self, value: int, width: int) -> Term:
        return bv_val(value & ((1 << width) - 1), width)

    def _decompose(self, fmt: _Format, x: Term) -> tuple[Term, Term, Term]:
        """Finite operand -> (sign: Bool, lsb_exp: BV[we], sig: BV[sb]).

        value = (-1)^sign * sig * 2^lsb_exp  (signed lsb_exp).
        """
        we = fmt.we
        sign = self._sign(fmt, x)
        e = self._efield(fmt, x)
        m = self._mfield(fmt, x)
        subnormal = Equals(e, bv_val(0, fmt.eb))
        sig = Ite(subnormal,
                  bv_zero_extend(m, 1),
                  bv_concat(bv_val(1, 1), m))
        e_wide = bv_zero_extend(e, we - fmt.eb)
        lsb_exp = Ite(
            subnormal,
            self._signed_const(fmt.emin - fmt.mbits, we),
            bv_add(e_wide,
                   self._signed_const(-fmt.bias - fmt.mbits, we)))
        return sign, lsb_exp, sig

    def _msb_position(self, value: Term, we: int) -> Term:
        """Position of the most significant set bit, as BV[we] (0 if none)."""
        width = value.width
        result = bv_val(0, we)
        for i in range(width):
            bit = Equals(bv_extract(value, i, i), bv_val(1, 1))
            result = Ite(bit, bv_val(i, we), result)
        return result

    # ---- generic round-and-pack circuit ------------------------------------
    def _round_pack(self, fmt: _Format, sign: Term, lsb_exp: Term,
                    sig: Term) -> Term:
        """Round (-1)^sign * sig * 2^lsb_exp (exact) to the format, RNE."""
        we = fmt.we
        sb = fmt.sb
        n = sig.width

        pos = self._msb_position(sig, we)
        mag_exp = bv_add(lsb_exp, pos)
        emin_c = self._signed_const(fmt.emin, we)
        clamped = Ite(bv_slt(mag_exp, emin_c), emin_c, mag_exp)
        quantum = bv_add(clamped, self._signed_const(-fmt.mbits, we))
        shift = bv_sub(quantum, lsb_exp)
        neg_shift = bv_slt(shift, self._signed_const(0, we))

        # Case A: shift <= 0 — exact left shift, result has <= sb bits.
        left_amount = bv_neg(shift)
        wide = bv_zero_extend(sig, sb + 1)
        shifted_left = bv_shl(wide, self._trunc_or_extend(left_amount,
                                                          n + sb + 1))
        q_exact = bv_extract(shifted_left, sb, 0)

        # Case B: shift > 0 — right shift with guard/sticky rounding.
        shift_n = self._trunc_or_extend(shift, n)
        q_floor = bv_lshr(sig, shift_n)
        rem = bv_shl(sig, bv_sub(bv_val(n, n), shift_n))
        guard_normal = Equals(bv_extract(rem, n - 1, n - 1), bv_val(1, 1))
        sticky_normal = (bv_extract(rem, n - 2, 0).neq(bv_val(0, n - 1))
                         if n >= 2 else FALSE)
        big = bv_ult(self._signed_const(n, we), shift)
        sig_nonzero = sig.neq(bv_val(0, n))
        guard = And(Not(big), guard_normal)
        sticky = Or(And(big, sig_nonzero), And(Not(big), sticky_normal))
        q_floor_small = bv_extract(bv_zero_extend(q_floor, 1), sb, 0)
        lsb_set = Equals(bv_extract(q_floor_small, 0, 0), bv_val(1, 1))
        round_up = And(guard, Or(sticky, lsb_set))
        q_rounded = bv_add(q_floor_small,
                           Ite(round_up, bv_val(1, sb + 1),
                               bv_val(0, sb + 1)))

        q = Ite(neg_shift, q_exact, q_rounded)  # sb+1 bits

        # Carry renormalisation: q == 2^sb.
        carry = Equals(bv_extract(q, sb, sb), bv_val(1, 1))
        q_final = Ite(carry,
                      bv_val(1 << (sb - 1), sb),
                      bv_extract(q, sb - 1, 0))
        quantum_final = bv_add(
            quantum, Ite(carry, bv_val(1, we), bv_val(0, we)))

        normal = Equals(bv_extract(q_final, sb - 1, sb - 1), bv_val(1, 1))
        res_exp = bv_add(quantum_final, self._signed_const(fmt.mbits, we))
        overflow = bv_slt(self._signed_const(fmt.emax, we), res_exp)
        efield = self._trunc_or_extend(
            bv_add(res_exp, self._signed_const(fmt.bias, we)), fmt.eb)
        mfield = bv_extract(q_final, fmt.mbits - 1, 0)
        packed_normal = bv_concat(self._sign_to_bit(sign), efield, mfield)
        packed_subnormal = bv_concat(self._sign_to_bit(sign),
                                     bv_val(0, fmt.eb), mfield)
        result = Ite(normal,
                     Ite(overflow,
                         Ite(sign, self._inf_const(fmt, 1),
                             self._inf_const(fmt, 0)),
                         packed_normal),
                     packed_subnormal)
        is_zero_sig = Equals(sig, bv_val(0, n))
        q_zero = Equals(q_final, bv_val(0, sb))
        return Ite(Or(is_zero_sig, q_zero), self._zero_of(fmt, sign), result)

    def _sign_to_bit(self, sign: Term) -> Term:
        return Ite(sign, bv_val(1, 1), bv_val(0, 1))

    def _trunc_or_extend(self, value: Term, width: int) -> Term:
        if value.width == width:
            return value
        if value.width > width:
            return bv_extract(value, width - 1, 0)
        return bv_zero_extend(value, width - value.width)

    # ---- addition -----------------------------------------------------------
    def _add(self, fmt: _Format, a: Term, b: Term) -> Term:
        we = fmt.we
        sb = fmt.sb
        offset = sb + 3
        wide_width = 2 * sb + 5

        sa, ea, siga = self._decompose(fmt, a)
        sb_sign, eb_, sigb = self._decompose(fmt, b)

        swap = bv_slt(ea, eb_)
        e_big = Ite(swap, eb_, ea)
        sig_big = Ite(swap, sigb, siga)
        sig_small = Ite(swap, siga, sigb)
        sign_big = Ite(swap, sb_sign, sa)
        sign_small = Ite(swap, sa, sb_sign)
        d = Ite(swap, bv_sub(eb_, ea), bv_sub(ea, eb_))

        big_wide = bv_shl(bv_zero_extend(sig_big, wide_width - sb),
                          bv_val(offset, wide_width))
        small_wide = bv_shl(bv_zero_extend(sig_small, wide_width - sb),
                            bv_val(offset, wide_width))
        d_too_big = bv_ult(self._signed_const(offset, we), d)
        small_nonzero = sig_small.neq(bv_val(0, sb))
        small_shifted = Ite(
            d_too_big,
            Ite(small_nonzero, bv_val(1, wide_width),
                bv_val(0, wide_width)),
            bv_lshr(small_wide, self._trunc_or_extend(d, wide_width)))

        same_sign = Iff(sign_big, sign_small)
        total_same = bv_add(big_wide, small_shifted)
        big_geq = bv_ule(small_shifted, big_wide)
        diff_big = bv_sub(big_wide, small_shifted)
        diff_small = bv_sub(small_shifted, big_wide)
        total_diff = Ite(big_geq, diff_big, diff_small)
        result_sign_diff = Ite(big_geq, sign_big, sign_small)

        total = Ite(same_sign, total_same, total_diff)
        result_sign = Ite(same_sign, sign_big, result_sign_diff)
        cancelled = Equals(total, bv_val(0, wide_width))
        final_sign = And(Not(cancelled), result_sign)

        lsb_exp = bv_add(e_big, self._signed_const(-offset, we))
        general = self._round_pack(fmt, final_sign, lsb_exp, total)

        # Specials.
        nan_case = Or(
            self._is_nan(fmt, a), self._is_nan(fmt, b),
            And(self._is_inf(fmt, a), self._is_inf(fmt, b),
                Xor(self._sign(fmt, a), self._sign(fmt, b))))
        both_neg_zero = And(self._is_zero(fmt, a), self._is_zero(fmt, b),
                            self._sign(fmt, a), self._sign(fmt, b))
        result = Ite(
            nan_case, self._nan_const(fmt),
            Ite(self._is_inf(fmt, a), a,
                Ite(self._is_inf(fmt, b), b,
                    Ite(both_neg_zero,
                        bv_val(1 << (fmt.width - 1), fmt.width),
                        general))))
        return result

    # ---- multiplication --------------------------------------------------
    def _mul(self, fmt: _Format, a: Term, b: Term) -> Term:
        we = fmt.we
        sb = fmt.sb

        sa, ea, siga = self._decompose(fmt, a)
        sb_sign, eb_, sigb = self._decompose(fmt, b)
        sign = Xor(sa, sb_sign)

        product = bv_mul(bv_zero_extend(siga, sb),
                         bv_zero_extend(sigb, sb))
        lsb_exp = bv_add(ea, eb_)
        general = self._round_pack(fmt, sign, lsb_exp, product)

        nan_case = Or(
            self._is_nan(fmt, a), self._is_nan(fmt, b),
            And(self._is_inf(fmt, a), self._is_zero(fmt, b)),
            And(self._is_inf(fmt, b), self._is_zero(fmt, a)))
        inf_case = Or(self._is_inf(fmt, a), self._is_inf(fmt, b))
        zero_case = Or(self._is_zero(fmt, a), self._is_zero(fmt, b))
        return Ite(
            nan_case, self._nan_const(fmt),
            Ite(inf_case,
                Ite(sign, self._inf_const(fmt, 1), self._inf_const(fmt, 0)),
                Ite(zero_case, self._zero_of(fmt, sign), general)))
