"""Instance generators for the six logics of the evaluation (Table I).

Every template builds (a) the SMT assertions and (b) a plain-Python
predicate over the projected values, so the exact projected count is
computed analytically at generation time.  Theory "garnish" comes in two
kinds:

* *witness* constraints — continuous/array/UF parts that are satisfiable
  for every projected value (pure existential witnesses; they exercise
  the hybrid machinery without changing the count);
* *pruning* constraints — theory parts that eliminate a computable set of
  projected values (e.g. an FP bound that forces a control bit to zero).

Both kinds appear in every logic so counters cannot cheat by ignoring the
theories.
"""

from __future__ import annotations

import random

from repro.benchgen.spec import Instance
from repro.smt.sorts import BitVecSort
from repro.smt.terms import (
    And, Equals, Implies, Or, Term, apply_uf, array_var, bv_add,
    bv_and, bv_extract, bv_ult, bv_val, bv_var, bv_xor, fp_from_bv,
    fp_leq, fp_lt, fp_var, real_lt, real_val, real_var, select, store, uf,
)
from repro.smt.theories.fp.softfloat import FpFormat, SoftFloat
from repro.utils.rng import SeedSequence

_FP_EB, _FP_SB = 3, 4
_SF = SoftFloat(FpFormat(_FP_EB, _FP_SB))


def _fp_const(value) -> Term:
    bits = _SF.from_fraction(value)
    return fp_from_bv(bv_val(bits, _SF.fmt.total_width), _FP_EB, _FP_SB)


class _Builder:
    """Shared state for one instance: assertions + Python predicate."""

    def __init__(self, name: str, rng: random.Random, width: int):
        self.name = name
        self.rng = rng
        self.width = width
        self.x = bv_var(f"{name}!x", width)
        self.assertions: list[Term] = []
        self.predicates = []  # python callables over the projected value

    # ---- the BV core (always present) --------------------------------
    def bv_core(self) -> None:
        rng, width, x = self.rng, self.width, self.x
        bound = rng.randrange(3 * (1 << width) // 4, 1 << width)
        self.assertions.append(bv_ult(x, bv_val(bound, width)))
        self.predicates.append(lambda v, bound=bound: v < bound)
        if rng.random() < 0.7:
            mask = rng.randrange(1, 1 << min(width, 3))
            pattern = rng.randrange(1 << width) & mask
            self.assertions.append(
                Equals(bv_and(x, bv_val(mask, width)),
                       bv_val(pattern, width)))
            self.predicates.append(
                lambda v, m=mask, p=pattern: (v & m) == p)
        if rng.random() < 0.4:
            # an arithmetic twist: (x + c) ^ x has some fixed low bit
            shift_c = rng.randrange(1, 1 << width)
            bit = rng.randrange(min(3, width))
            target = rng.randrange(2)
            twisted = bv_xor(bv_add(x, bv_val(shift_c, width)), x)
            self.assertions.append(
                Equals(bv_extract(twisted, bit, bit), bv_val(target, 1)))
            self.predicates.append(
                lambda v, c=shift_c, b=bit, t=target, w=width:
                (((v + c) ^ v) >> b) & 1 == t)

    def _bit(self, position: int) -> Term:
        return Equals(bv_extract(self.x, position, position), bv_val(1, 1))

    # ---- theory garnish -----------------------------------------------
    def fp_witness(self, tag: str) -> None:
        """FP part satisfiable for every x (existential witness)."""
        h = fp_var(f"{self.name}!h{tag}", _FP_EB, _FP_SB)
        bit = self.rng.randrange(self.width)
        self.assertions.append(Implies(
            self._bit(bit),
            And(fp_leq(_fp_const(1), h), fp_lt(h, _fp_const(2)))))
        self.assertions.append(Or(fp_lt(h, _fp_const(4)),
                                  fp_leq(_fp_const(-4), h)))

    def fp_pruning(self, tag: str) -> None:
        """FP bounds that force a chosen x bit to zero."""
        h = fp_var(f"{self.name}!hp{tag}", _FP_EB, _FP_SB)
        bit = self.rng.randrange(self.width)
        # h in [2, 3) always; if bit set, h < 1: impossible -> bit = 0.
        self.assertions.append(fp_leq(_fp_const(2), h))
        self.assertions.append(fp_lt(h, _fp_const(3)))
        self.assertions.append(Implies(self._bit(bit),
                                       fp_lt(h, _fp_const(1))))
        self.predicates.append(lambda v, b=bit: (v >> b) & 1 == 0)

    def lra_witness(self, tag: str) -> None:
        r1 = real_var(f"{self.name}!r1{tag}")
        r2 = real_var(f"{self.name}!r2{tag}")
        bit = self.rng.randrange(self.width)
        self.assertions.append(real_lt(real_val(0), r1))
        self.assertions.append(real_lt(r1, r2))
        self.assertions.append(real_lt(r2, real_val(10)))
        self.assertions.append(Implies(
            self._bit(bit), real_lt(r2, real_val(5))))

    def lra_pruning(self, tag: str) -> None:
        r = real_var(f"{self.name}!rp{tag}")
        bit = self.rng.randrange(self.width)
        # r > 7 always; if bit set, r < 3: impossible -> bit = 0.
        self.assertions.append(real_lt(real_val(7), r))
        self.assertions.append(Implies(self._bit(bit),
                                       real_lt(r, real_val(3))))
        self.predicates.append(lambda v, b=bit: (v >> b) & 1 == 0)

    def array_witness(self, tag: str) -> None:
        idx_width = min(3, self.width)
        arr = array_var(f"{self.name}!a{tag}", BitVecSort(idx_width),
                        BitVecSort(4))
        low = bv_extract(self.x, idx_width - 1, 0)
        value = self.rng.randrange(16)
        self.assertions.append(
            Equals(select(arr, low), bv_val(value, 4)))
        # Exercise store/read-over-write without changing the count: the
        # disjunction holds for every x given the constraint above.
        written = store(arr, bv_val(0, idx_width), bv_val(value ^ 1, 4))
        self.assertions.append(
            Or(Equals(select(written, low), bv_val(value, 4)),
               Equals(low, bv_val(0, idx_width))))

    def array_pruning(self, tag: str) -> None:
        idx_width = min(3, self.width)
        arr = array_var(f"{self.name}!ap{tag}", BitVecSort(idx_width),
                        BitVecSort(4))
        pinned = self.rng.randrange(1 << idx_width)
        low = bv_extract(self.x, idx_width - 1, 0)
        # a[pinned] = 5 and a[x_low] = 9: x_low must differ from pinned.
        self.assertions.append(
            Equals(select(arr, bv_val(pinned, idx_width)), bv_val(5, 4)))
        self.assertions.append(Equals(select(arr, low), bv_val(9, 4)))
        mask = (1 << idx_width) - 1
        self.predicates.append(
            lambda v, p=pinned, m=mask: (v & m) != p)

    def uf_witness(self, tag: str) -> None:
        idx_width = min(3, self.width)
        f = uf(f"{self.name}!f{tag}", [BitVecSort(idx_width)],
               BitVecSort(4))
        low = bv_extract(self.x, idx_width - 1, 0)
        self.assertions.append(
            bv_ult(apply_uf(f, low), bv_val(9, 4)))

    def uf_pruning(self, tag: str) -> None:
        idx_width = min(3, self.width)
        f = uf(f"{self.name}!fp{tag}", [BitVecSort(idx_width)],
               BitVecSort(4))
        pinned = self.rng.randrange(1 << idx_width)
        low = bv_extract(self.x, idx_width - 1, 0)
        # f(pinned) = 1 and f(x_low) = 2: congruence forces x_low != pinned.
        self.assertions.append(
            Equals(apply_uf(f, bv_val(pinned, idx_width)), bv_val(1, 4)))
        self.assertions.append(Equals(apply_uf(f, low), bv_val(2, 4)))
        mask = (1 << idx_width) - 1
        self.predicates.append(
            lambda v, p=pinned, m=mask: (v & m) != p)

    # ---- finalisation ----------------------------------------------------
    def build(self, logic: str, cluster: str, seed: int,
              difficulty: int) -> Instance:
        count = sum(
            1 for v in range(1 << self.width)
            if all(predicate(v) for predicate in self.predicates))
        return Instance(
            name=self.name, logic=logic, cluster=cluster,
            assertions=list(self.assertions), projection=[self.x],
            known_count=count, difficulty=difficulty, seed=seed)


def _make(logic: str, template: str, seed: int, width: int,
          garnishes, difficulty: int) -> Instance:
    # SeedSequence, not hash(): Python string hashing is randomised per
    # process, and instances must be identical across runs for the
    # engine's fingerprint cache (and plain reproducibility).
    rng = SeedSequence(seed, "benchgen").stream(f"{logic}/{template}")
    name = f"{logic.lower()}_{template}_{width}w_{seed:03d}"
    builder = _Builder(name, rng, width)
    builder.bv_core()
    for index, garnish in enumerate(garnishes):
        garnish(builder, str(index))
    cluster = f"{logic}:{template}:{width}"
    return builder.build(logic, cluster, seed, difficulty)


# ----------------------------------------------------------------------
# per-logic entry points
# ----------------------------------------------------------------------
def qf_abv(seed: int, width: int = 10, difficulty: int = 1) -> Instance:
    return _make("QF_ABV", "table", seed, width,
                 [_Builder.array_witness, _Builder.array_pruning],
                 difficulty)


def qf_ufbv(seed: int, width: int = 10, difficulty: int = 1) -> Instance:
    return _make("QF_UFBV", "apply", seed, width,
                 [_Builder.uf_witness, _Builder.uf_pruning], difficulty)


def qf_bvfp(seed: int, width: int = 10, difficulty: int = 1) -> Instance:
    return _make("QF_BVFP", "guard", seed, width,
                 [_Builder.fp_witness, _Builder.fp_pruning], difficulty)


def qf_bvfplra(seed: int, width: int = 10,
               difficulty: int = 1) -> Instance:
    return _make("QF_BVFPLRA", "mixed", seed, width,
                 [_Builder.fp_witness, _Builder.lra_pruning,
                  _Builder.lra_witness], difficulty)


def qf_abvfp(seed: int, width: int = 10, difficulty: int = 1) -> Instance:
    return _make("QF_ABVFP", "tablefp", seed, width,
                 [_Builder.array_pruning, _Builder.fp_witness],
                 difficulty)


def qf_abvfplra(seed: int, width: int = 10,
                difficulty: int = 1) -> Instance:
    return _make("QF_ABVFPLRA", "full", seed, width,
                 [_Builder.array_witness, _Builder.fp_pruning,
                  _Builder.lra_witness], difficulty)


GENERATORS = {
    "QF_ABV": qf_abv,
    "QF_UFBV": qf_ufbv,
    "QF_BVFP": qf_bvfp,
    "QF_BVFPLRA": qf_bvfplra,
    "QF_ABVFP": qf_abvfp,
    "QF_ABVFPLRA": qf_abvfplra,
}
