"""Tseitin gate construction over the CDCL solver.

All gate builders operate on SAT literals (signed ints).  The constant
true is the literal of a dedicated variable forced at the root; constant
false is its negation.  Gates are structurally hashed per solver frame:
a gate built inside a pact cell frame is dropped when the frame pops
(its output variable no longer exists), while root-frame gates persist
across the whole counting run.
"""

from __future__ import annotations

from repro.sat.kernel import CdclDriver


class CnfBuilder:
    """Structural-hashing Tseitin builder bound to a CdclDriver."""

    def __init__(self, solver: CdclDriver, true_lit: int | None = None):
        """Bind to ``solver``; ``true_lit`` names an *existing* variable
        already forced true at the root (the compile pipeline's
        reconstruction path, where the solver is cloned from a snapshot
        that contains the constant variable and its unit clause).  When
        omitted, a dedicated constant variable is allocated and forced.
        """
        self.solver = solver
        if true_lit is None:
            true_lit = solver.new_var()
            solver.add_clause([true_lit])
        self.true_lit = true_lit
        self.false_lit = -true_lit
        # one gate cache per open frame; lookups scan top-down
        self._caches: list[dict] = [{}]

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push(self) -> None:
        self.solver.push()
        self._caches.append({})

    def pop(self) -> None:
        self.solver.pop()
        self._caches.pop()
        if not self._caches:
            raise RuntimeError("popped the root cache")

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _lookup(self, key):
        for cache in reversed(self._caches):
            if key in cache:
                return cache[key]
        return None

    def _insert(self, key, lit: int) -> int:
        self._caches[-1][key] = lit
        return lit

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def new_lit(self) -> int:
        return self.solver.new_var()

    def add_clause(self, lits: list[int]) -> None:
        self.solver.add_clause(lits)

    def const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    # ------------------------------------------------------------------
    # gates
    # ------------------------------------------------------------------
    def land(self, a: int, b: int) -> int:
        """AND gate with constant/structural simplification."""
        if a == self.false_lit or b == self.false_lit or a == -b:
            return self.false_lit
        if a == self.true_lit:
            return b
        if b == self.true_lit:
            return a
        if a == b:
            return a
        key = ("and", min(a, b), max(a, b))
        cached = self._lookup(key)
        if cached is not None:
            return cached
        out = self.new_lit()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return self._insert(key, out)

    def lor(self, a: int, b: int) -> int:
        return -self.land(-a, -b)

    def land_many(self, lits: list[int]) -> int:
        out = self.true_lit
        for lit in lits:
            out = self.land(out, lit)
        return out

    def lor_many(self, lits: list[int]) -> int:
        out = self.false_lit
        for lit in lits:
            out = self.lor(out, lit)
        return out

    def lxor(self, a: int, b: int) -> int:
        if a == self.false_lit:
            return b
        if b == self.false_lit:
            return a
        if a == self.true_lit:
            return -b
        if b == self.true_lit:
            return -a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        # Normalise for the cache: xor(a,b) = xor(-a,-b); -xor = xor(-a,b).
        negate = False
        if a < 0:
            a, negate = -a, not negate
        if b < 0:
            b, negate = -b, not negate
        key = ("xor", min(a, b), max(a, b))
        cached = self._lookup(key)
        if cached is None:
            out = self.new_lit()
            self.add_clause([-out, a, b])
            self.add_clause([-out, -a, -b])
            self.add_clause([out, -a, b])
            self.add_clause([out, a, -b])
            cached = self._insert(key, out)
        return -cached if negate else cached

    def liff(self, a: int, b: int) -> int:
        return -self.lxor(a, b)

    def lite(self, cond: int, then: int, els: int) -> int:
        """Multiplexer gate."""
        if cond == self.true_lit:
            return then
        if cond == self.false_lit:
            return els
        if then == els:
            return then
        if then == self.true_lit and els == self.false_lit:
            return cond
        if then == self.false_lit and els == self.true_lit:
            return -cond
        if then == self.true_lit:
            return self.lor(cond, els)
        if then == self.false_lit:
            return self.land(-cond, els)
        if els == self.true_lit:
            return self.lor(-cond, then)
        if els == self.false_lit:
            return self.land(cond, then)
        if then == -els:
            return self.liff(cond, then)
        key = ("ite", cond, then, els)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        out = self.new_lit()
        self.add_clause([-out, -cond, then])
        self.add_clause([-out, cond, els])
        self.add_clause([out, -cond, -then])
        self.add_clause([out, cond, -els])
        self.add_clause([-out, then, els])      # redundant, helps UP
        self.add_clause([out, -then, -els])
        return self._insert(key, out)

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns (sum, carry-out)."""
        s = self.lxor(self.lxor(a, b), cin)
        carry = self.lor(self.land(a, b),
                         self.land(cin, self.lxor(a, b)))
        return s, carry

    def require(self, lit: int) -> None:
        """Assert that ``lit`` holds."""
        self.add_clause([lit])
