"""Native XOR (parity) constraint propagation for the CDCL solver.

The paper attributes much of pact_xor's advantage to CryptoMiniSat's native
XOR reasoning (section III-E): an XOR hash constraint over k variables is a
single parity row, while its CNF encoding needs 2^(k-1) clauses.  This
engine reproduces the mechanism with a two-watched scheme over Python
bigint bitmasks:

* a row is ``(mask, rhs)`` where bit v of ``mask`` marks variable v and
  ``rhs`` is the required parity of the true variables;
* each row watches two unassigned variables; when a watched variable is
  assigned the engine looks for a replacement inside ``mask``; if none
  exists the row is unit (propagate the other watch) or fully assigned
  (check parity, else conflict);
* parity of the assigned part is one ``(mask & true_mask).bit_count()`` —
  bigint popcount, which is why masks rather than lists are used.

Reason clauses for XOR-implied literals are materialised lazily, only when
conflict analysis asks for them.
"""

from __future__ import annotations

from repro.sat.clause import Clause


class XorRow:
    """One parity constraint: XOR of the variables in ``mask`` equals ``rhs``.

    ``birth`` is the solver frame depth the row was added in; clauses
    materialised from the row (reasons, conflicts) inherit it as their
    dependency index, so learnt clauses derived through this row are
    retained across pops exactly while the row itself survives.
    """

    __slots__ = ("mask", "rhs", "w1", "w2", "birth")

    def __init__(self, mask: int, rhs: int, w1: int, w2: int,
                 birth: int = 0):
        self.mask = mask
        self.rhs = rhs
        self.w1 = w1
        self.w2 = w2
        self.birth = birth

    def variables(self) -> list[int]:
        """The variables of this row, ascending."""
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def __repr__(self) -> str:
        return f"XorRow(vars={self.variables()}, rhs={self.rhs})"


class XorEngine:
    """Parity propagation engine embedded in a :class:`~repro.sat.kernel.CdclDriver`.

    The engine reads the solver's assignment through the two bitmask
    attributes the solver maintains (``assigned_mask``, ``true_mask``) and
    enqueues implied literals through the solver's internal enqueue hook.
    """

    def __init__(self, solver):
        self._solver = solver
        self.rows: list[XorRow] = []
        # watch lists: variable -> row indices currently watching it
        self._watch: dict[int, list[int]] = {}
        # Length of the root-row prefix already in reduced form (see
        # :meth:`eliminate_root`); re-elimination triggers only when
        # new root rows appear beyond it.
        self._eliminated = 0

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_xor(self, variables: list[int], rhs: bool) -> bool:
        """Add the constraint ``xor(variables) == rhs``.

        Must be called at decision level 0.  Duplicated variables cancel
        (x ^ x = 0).  Returns False if the constraint is immediately
        inconsistent with the level-0 assignment.
        """
        solver = self._solver
        mask = 0
        for v in variables:
            if v <= 0 or v > solver.num_vars():
                raise ValueError(f"unknown variable {v} in xor constraint")
            mask ^= 1 << v
        parity = 1 if rhs else 0

        # Substitute level-0 assigned variables immediately.
        fixed = mask & solver.assigned_mask
        parity ^= (fixed & solver.true_mask).bit_count() & 1
        mask &= ~solver.assigned_mask

        if mask == 0:
            return parity == 0
        if mask & (mask - 1) == 0:  # single variable: unit
            v = mask.bit_length() - 1
            lit = v if parity else -v
            return solver._enqueue_root(lit)

        w1 = mask.bit_length() - 1  # highest set bit's variable
        w2 = (mask ^ (1 << w1)).bit_length() - 1
        # Level-0-assigned variables were folded into `parity` above; they
        # stay fixed for the row's lifetime (a frame pop that could unfix
        # them also removes the row), so the reduced mask is sound.
        row = XorRow(mask, parity, w1, w2, birth=solver.frame_depth)
        index = len(self.rows)
        self.rows.append(row)
        self._watch.setdefault(w1, []).append(index)
        self._watch.setdefault(w2, []).append(index)
        return True

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def on_assign(self, var: int):
        """Called by the solver when ``var`` gets assigned.

        Returns None if no conflict, otherwise a conflict :class:`Clause`.
        Implied literals are enqueued on the solver trail with this engine
        recorded as their reason.
        """
        watching = self._watch.get(var)
        if not watching:
            return None
        solver = self._solver
        assigned = solver.assigned_mask
        keep: list[int] = []
        conflict = None
        for position, index in enumerate(watching):
            row = self.rows[index]
            other = row.w2 if row.w1 == var else row.w1
            # Try to find a replacement watch: a free variable in the row
            # that is not the other watch.
            free = row.mask & ~assigned & ~(1 << other)
            if free:
                replacement = free.bit_length() - 1
                if row.w1 == var:
                    row.w1 = replacement
                else:
                    row.w2 = replacement
                self._watch.setdefault(replacement, []).append(index)
                continue
            keep.append(index)
            parity = ((row.mask & solver.true_mask).bit_count() & 1) ^ row.rhs
            if not (assigned >> other) & 1:
                # Row is unit on `other`: parity of assigned part decides it.
                lit = other if parity else -other
                if not solver._enqueue(lit, ("xor", index)):
                    # `lit` is already false: the implication clause itself
                    # is the falsified clause.
                    conflict = self.reason_clause(lit, index)
                    keep.extend(watching[position + 1:])
                    break
                assigned = solver.assigned_mask
            elif parity:
                # Fully assigned with wrong parity: conflict.
                conflict = self.conflict_clause(index)
                keep.extend(watching[position + 1:])
                break
        if len(keep) != len(watching):
            self._watch[var] = keep
        return conflict

    # ------------------------------------------------------------------
    # reasons and conflicts
    # ------------------------------------------------------------------
    def reason_clause(self, lit: int, index: int) -> Clause:
        """Materialise the implication clause that forced ``lit``.

        For a row x1 ^ ... ^ xk = p with all variables but var(lit)
        assigned, the clause is (lit OR the negation of every other
        variable's current assignment).
        """
        solver = self._solver
        row = self.rows[index]
        var = lit if lit > 0 else -lit
        lits = [lit]
        for v in row.variables():
            if v == var:
                continue
            lits.append(-v if (solver.true_mask >> v) & 1 else v)
        return Clause(lits, learnt=True, dep=row.birth)

    def conflict_clause(self, index: int) -> Clause:
        """The clause falsified by a fully-assigned, parity-violating row."""
        solver = self._solver
        row = self.rows[index]
        lits = [
            -v if (solver.true_mask >> v) & 1 else v for v in row.variables()
        ]
        return Clause(lits, learnt=True, dep=row.birth)

    # ------------------------------------------------------------------
    # dense-system elimination
    # ------------------------------------------------------------------
    def eliminate_root(self) -> bool:
        """Gauss–Jordan the root-born rows into a reduced basis.

        A dense XOR system (many overlapping rows, as in random parity
        benchmarks) is nearly opaque to watch-based propagation: a row
        only fires once all but one of its variables are assigned, so
        CDCL search degenerates into near-enumeration.  The reduced
        row-echelon basis spans the same GF(2) solution set but each
        row couples one pivot variable to the (few) free columns, so
        propagation cascades as soon as the free variables are decided
        — the elimination turns an hours-scale search into
        milliseconds on dense systems.

        Only root-born rows (``birth == 0``, always a prefix of
        ``rows``) are eliminated, and only at frame depth 0: frames
        index rows positionally for :meth:`truncate`, and pact's hash
        rows live inside frames by design — their propagation is
        untouched, so counting behaviour is bit-identical.  Rows
        reduced to a single variable become root units; inconsistent
        combinations (empty row, odd parity) report False.  Idempotent:
        re-runs only when new root rows appeared.
        """
        solver = self._solver
        if solver.frame_depth or solver.decision_level():
            return True
        prefix = 0
        for row in self.rows:
            if row.birth != 0:
                break
            prefix += 1
        if prefix < 2 or prefix <= self._eliminated:
            return True
        pivots: dict[int, list[int]] = {}
        for row in self.rows[:prefix]:
            mask = row.mask & ~solver.assigned_mask
            parity = (row.rhs
                      ^ ((row.mask & solver.true_mask).bit_count() & 1))
            top = 0
            while mask:
                top = mask.bit_length() - 1
                pivot = pivots.get(top)
                if pivot is None:
                    break
                mask ^= pivot[0]
                parity ^= pivot[1]
            if mask == 0:
                if parity:
                    return False  # dependent rows with odd parity
                continue
            # Back-substitute the new pivot into the existing rows so
            # the basis stays fully reduced (each variable appears in
            # at most one row outside the free columns).
            for other in pivots.values():
                if (other[0] >> top) & 1:
                    other[0] ^= mask
                    other[1] ^= parity
            pivots[top] = [mask, parity]
        units: list[int] = []
        reduced: list[XorRow] = []
        for top in sorted(pivots, reverse=True):
            mask, parity = pivots[top]
            if mask & (mask - 1) == 0:  # single variable: unit
                units.append(top if parity else -top)
                continue
            w1 = mask.bit_length() - 1
            w2 = (mask ^ (1 << w1)).bit_length() - 1
            reduced.append(XorRow(mask, parity, w1, w2, birth=0))
        self.rows[:prefix] = reduced
        self._eliminated = len(reduced)
        self._watch = {}
        for index, row in enumerate(self.rows):
            self._watch.setdefault(row.w1, []).append(index)
            self._watch.setdefault(row.w2, []).append(index)
        for lit in units:
            if not solver._enqueue_root(lit):
                return False
        return True

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Frame marker for :meth:`truncate`."""
        return len(self.rows)

    def truncate(self, mark: int) -> None:
        """Drop rows added after ``mark`` and rebuild the watch lists.

        Only legal when the solver trail holds no literal whose reason is a
        dropped row — the solver guarantees this by backtracking to its
        push-frame trail mark first.
        """
        if mark > len(self.rows):
            raise ValueError("xor frame mark beyond current rows")
        del self.rows[mark:]
        if self._eliminated > mark:
            self._eliminated = mark
        self._watch = {}
        for index, row in enumerate(self.rows):
            self._watch.setdefault(row.w1, []).append(index)
            self._watch.setdefault(row.w2, []).append(index)

    def check_model(self, true_mask: int) -> bool:
        """Verify all rows under a complete assignment (testing hook)."""
        return all(
            ((row.mask & true_mask).bit_count() & 1) == row.rhs
            for row in self.rows
        )
