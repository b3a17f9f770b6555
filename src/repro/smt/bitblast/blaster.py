"""The term-to-CNF bit-blaster.

Walks (preprocessed) Bool/BV term DAGs and produces SAT literals.  By the
time a term reaches the blaster, the preprocessor has eliminated floating
point (-> BV circuits), arrays and UF (-> fresh variables + congruence
lemmas) and abstracted real atoms (-> fresh Bool variables), so only the
discrete core remains; anything else here is an internal error.

Memoisation is per solver frame: a term first blasted inside a frame uses
variables that die with the frame, so its memo entry must die too.
"""

from __future__ import annotations

from repro.errors import UnsupportedFeatureError
from repro.smt.bitblast import circuits
from repro.smt.bitblast.cnf import CnfBuilder
from repro.smt.ops import Op
from repro.smt.terms import Term


class BitBlaster:
    """Blasts Bool terms to literals and BV terms to literal vectors."""

    def __init__(self, builder: CnfBuilder):
        self.builder = builder
        self._memo_stack: list[dict[Term, object]] = [{}]

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push(self) -> None:
        self.builder.push()
        self._memo_stack.append({})

    def pop(self) -> None:
        self.builder.pop()
        self._memo_stack.pop()

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def assert_bool(self, term: Term) -> None:
        """Blast a Bool term and assert it."""
        self.builder.require(self.blast_bool(term))

    def blast_bool(self, term: Term) -> int:
        result = self._blast(term)
        assert isinstance(result, int), f"expected literal for {term!r}"
        return result

    def blast_bv(self, term: Term) -> list[int]:
        result = self._blast(term)
        assert isinstance(result, list), f"expected bits for {term!r}"
        return result

    # ------------------------------------------------------------------
    # memo plumbing
    # ------------------------------------------------------------------
    def _lookup(self, term: Term):
        for memo in reversed(self._memo_stack):
            if term in memo:
                return memo[term]
        return None

    def _store(self, term: Term, value):
        self._memo_stack[-1][term] = value
        return value

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------
    def _blast(self, term: Term):
        cached = self._lookup(term)
        if cached is not None:
            return cached
        # Iterative post-order to avoid recursion limits on deep terms.
        stack = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if self._lookup(node) is not None:
                continue
            if not expanded:
                stack.append((node, True))
                for arg in node.args:
                    if self._lookup(arg) is None:
                        stack.append((arg, False))
                continue
            self._store(node, self._blast_node(node))
        return self._lookup(term)

    def _arg_bits(self, node: Term) -> list[list[int]]:
        return [self._lookup(a) for a in node.args]

    def _blast_node(self, node: Term):
        builder = self.builder
        op = node.op

        if op == Op.VAR:
            if node.sort.is_bool():
                return builder.new_lit()
            if node.sort.is_bv():
                return [builder.new_lit() for _ in range(node.sort.width)]
            raise UnsupportedFeatureError(
                f"variable of sort {node.sort!r} reached the bit-blaster "
                "(preprocessor should have eliminated it)")
        if op == Op.BOOL_CONST:
            return builder.const(node.payload)
        if op == Op.BV_CONST:
            return circuits.const_bits(builder, node.payload,
                                       node.sort.width)

        args = self._arg_bits(node)

        # ---- core -------------------------------------------------------
        if op == Op.EQ:
            a, b = args
            if isinstance(a, int):
                return builder.liff(a, b)
            return circuits.equals(builder, a, b)
        if op == Op.DISTINCT:
            lits = []
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    if isinstance(args[i], int):
                        lits.append(builder.lxor(args[i], args[j]))
                    else:
                        lits.append(-circuits.equals(builder, args[i],
                                                     args[j]))
            return builder.land_many(lits)
        if op == Op.ITE:
            cond, then, els = args
            if isinstance(then, int):
                return builder.lite(cond, then, els)
            return circuits.ite_bits(builder, cond, then, els)

        # ---- booleans -----------------------------------------------------
        if op == Op.NOT:
            return -args[0]
        if op == Op.AND:
            return builder.land_many(args)
        if op == Op.OR:
            return builder.lor_many(args)
        if op == Op.XOR:
            return builder.lxor(args[0], args[1])
        if op == Op.IMPLIES:
            return builder.lor(-args[0], args[1])

        # ---- bit-vectors ---------------------------------------------------
        if op == Op.BV_NOT:
            return [-bit for bit in args[0]]
        if op == Op.BV_NEG:
            return circuits.negate(builder, args[0])
        if op == Op.BV_AND:
            return [builder.land(x, y) for x, y in zip(*args)]
        if op == Op.BV_OR:
            return [builder.lor(x, y) for x, y in zip(*args)]
        if op == Op.BV_XOR:
            return [builder.lxor(x, y) for x, y in zip(*args)]
        if op == Op.BV_ADD:
            total, _ = circuits.ripple_add(builder, args[0], args[1])
            return total
        if op == Op.BV_SUB:
            total, _ = circuits.subtract(builder, args[0], args[1])
            return total
        if op == Op.BV_MUL:
            return circuits.multiply(builder, args[0], args[1])
        if op == Op.BV_UDIV:
            quotient, _ = circuits.divider(builder, args[0], args[1])
            return quotient
        if op == Op.BV_UREM:
            _, remainder = circuits.divider(builder, args[0], args[1])
            return remainder
        if op in (Op.BV_SDIV, Op.BV_SREM):
            return self._blast_signed_div(node, args)
        if op == Op.BV_SHL:
            return circuits.shift_left(builder, args[0], args[1])
        if op == Op.BV_LSHR:
            return circuits.shift_right(builder, args[0], args[1])
        if op == Op.BV_ASHR:
            return circuits.shift_right_arith(builder, args[0], args[1])
        if op == Op.BV_ULT:
            return circuits.unsigned_less(builder, args[0], args[1])
        if op == Op.BV_ULE:
            return circuits.unsigned_leq(builder, args[0], args[1])
        if op == Op.BV_SLT:
            return circuits.signed_less(builder, args[0], args[1])
        if op == Op.BV_SLE:
            return circuits.signed_leq(builder, args[0], args[1])
        if op == Op.BV_CONCAT:
            high, low = args
            return list(low) + list(high)
        if op == Op.BV_EXTRACT:
            hi, lo = node.params
            return args[0][lo:hi + 1]
        if op == Op.BV_ZERO_EXTEND:
            return circuits.zero_extend_bits(builder, args[0],
                                             node.params[0])
        if op == Op.BV_SIGN_EXTEND:
            return circuits.sign_extend_bits(builder, args[0],
                                             node.params[0])

        raise UnsupportedFeatureError(
            f"operator {op} reached the bit-blaster; the preprocessor "
            "should have eliminated it")

    def _blast_signed_div(self, node: Term, args):
        """bvsdiv / bvsrem via sign/magnitude over the unsigned divider."""
        builder = self.builder
        a, b = args
        width = len(a)
        sign_a, sign_b = a[-1], b[-1]
        abs_a = circuits.ite_bits(builder, sign_a,
                                  circuits.negate(builder, a), a)
        abs_b = circuits.ite_bits(builder, sign_b,
                                  circuits.negate(builder, b), b)
        quotient, remainder = circuits.divider(builder, abs_a, abs_b)
        if node.op == Op.BV_SDIV:
            flip = builder.lxor(sign_a, sign_b)
            signed_q = circuits.ite_bits(
                builder, flip, circuits.negate(builder, quotient), quotient)
            # SMT-LIB: sdiv by zero is 1 if a < 0 else all-ones.
            zero = circuits.const_bits(builder, 0, width)
            b_zero = circuits.equals(builder, b, zero)
            one = circuits.const_bits(builder, 1, width)
            ones = circuits.const_bits(builder, (1 << width) - 1, width)
            zero_case = circuits.ite_bits(builder, sign_a, one, ones)
            return circuits.ite_bits(builder, b_zero, zero_case, signed_q)
        # BV_SREM: result takes the sign of the dividend.
        signed_r = circuits.ite_bits(
            builder, sign_a, circuits.negate(builder, remainder), remainder)
        zero = circuits.const_bits(builder, 0, width)
        b_zero = circuits.equals(builder, b, zero)
        return circuits.ite_bits(builder, b_zero, a, signed_r)
