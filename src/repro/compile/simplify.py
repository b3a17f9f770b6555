"""Projected-count-preserving CNF simplification (the pipeline's third
stage).

Every pass here preserves the *projected model count* — the number of
distinct assignments to the projection bits extendable to a full model —
which is the only quantity the counters consume (cell counts are exact
counts over projection variables, so bit-identical estimates with
simplification on vs off follow from count preservation per stage):

* **unit propagation to fixpoint** — Boolean constraint propagation over
  clauses and XOR rows; derived units join the root assignment, so the
  simplified formula is *equivalent* to the original (same models).
* **equivalent-literal substitution** — SCCs of the binary-implication
  graph (binary clauses plus size-2 XOR rows) are literal equivalence
  classes; every *unprotected* member is replaced by the class
  representative.  The substituted variable leaves the formula entirely:
  for each projection assignment, a model of the new formula extends to
  one of the old by setting the variable to its representative's value,
  and old models restrict to new ones — satisfiability per projection
  assignment, hence the projected count, is unchanged.
* **failed-literal probing** — assume a literal, propagate; a conflict
  proves the formula entails its negation, which joins the root
  assignment.  Entailed units keep the formula *equivalent* (same
  models), so the projected count is unchanged for any variable,
  protected or not.
* **bounded variable elimination** — resolution-based existential
  elimination (NiVER: eliminate only when the resolvent set is no larger
  than the clauses it replaces), restricted to unprotected variables
  with no XOR occurrences.  ``exists v . F`` and the resolvent closure
  have the same models over the remaining variables, so the projected
  count is again unchanged.
* **blocked-clause elimination** — drop clauses all of whose resolvents
  on some literal l are tautological, with ``var(l)`` unprotected,
  unassigned and on no XOR row.  Flipping ``var(l)`` repairs any model
  of the reduced formula into one of the original without touching the
  projection bits, so extendability per projection assignment — the
  projected count — is preserved (full argument in DESIGN.md §5).
  BVE and BCE alternate, with duplicate clauses dropped before each
  round, until a round changes nothing.
* **projection-support minimisation** — pure analysis: projection bits
  the simplifier proved fixed (units) or aliased to another projection
  bit are dropped from the *reported* support set (``c p show`` lines
  for external counters).  The internal projection->bit map is never
  touched, so hash draws stay bit-identical.

**Protected variables** (never substituted or eliminated): projection
bits, LRA atom literals (the DPLL(T) loop reads their polarity), the
constant-true variable, and — for elimination — any variable on a native
XOR row.
"""

from __future__ import annotations

from collections import Counter

from repro.sat.kernel import SatSnapshot

# NiVER bounds: skip pivots with heavy occurrence lists, never let the
# resolvent set outgrow the clauses it replaces.
_BVE_MAX_OCCURRENCES = 10
_BVE_MAX_PRODUCT = 25

# Failed-literal probing bounds: probe at most this many variables
# (those rooting binary-implication chains, in variable order), with a
# per-probe and a total propagation-step budget so the stage stays a
# small fraction of compile time on any input.
_PROBE_MAX_VARS = 128
_PROBE_STEP_BUDGET = 2_000
_PROBE_TOTAL_BUDGET = 100_000

# Blocked-clause elimination bound: checking blockedness on literal l
# resolves against every clause containing -l, so skip heavy literals.
_BCE_MAX_OCCURRENCES = 20

STAGES = ("units", "equiv", "probe", "bve", "bce", "support")


class CnfState:
    """Mutable simplification state over a :class:`SatSnapshot`."""

    def __init__(self, snap: SatSnapshot, frozen: set[int]):
        self.num_vars = snap.num_vars
        self.clauses: list[list[int]] = [list(c) for c in snap.clauses]
        self.xors: list[tuple[set[int], bool]] = [
            (set(variables), bool(rhs)) for variables, rhs in snap.xors]
        self.frozen = set(frozen)
        self.ok = snap.ok
        # var -> bool: the (growing) root assignment
        self.assign: dict[int, bool] = {}
        for lit in snap.units:
            if not self._assign_lit(lit):
                self.ok = False
        # alias groups found by the equiv stage, for support minimisation:
        # frozen var -> (representative frozen var, same_polarity)
        self.aliases: dict[int, tuple[int, bool]] = {}

    # ------------------------------------------------------------------
    def _assign_lit(self, lit: int) -> bool:
        var, value = abs(lit), lit > 0
        current = self.assign.get(var)
        if current is None:
            self.assign[var] = value
            return True
        return current == value

    def value(self, lit: int) -> bool | None:
        value = self.assign.get(abs(lit))
        if value is None:
            return None
        return value if lit > 0 else not value

    def to_snapshot(self) -> SatSnapshot:
        units = tuple(var if value else -var
                      for var, value in sorted(self.assign.items()))
        return SatSnapshot(
            num_vars=self.num_vars,
            clauses=tuple(tuple(c) for c in self.clauses),
            units=units,
            xors=tuple((tuple(sorted(variables)), rhs)
                       for variables, rhs in self.xors),
            ok=self.ok)


# ----------------------------------------------------------------------
# stage 1: unit propagation to fixpoint
# ----------------------------------------------------------------------
def propagate_units(state: CnfState, stats=None) -> None:
    """BCP over clauses and XOR rows until nothing changes."""
    before = len(state.assign)
    changed = True
    while changed and state.ok:
        changed = False
        kept_clauses: list[list[int]] = []
        for clause in state.clauses:
            lits: list[int] = []
            seen: set[int] = set()
            satisfied = False
            for lit in clause:
                value = state.value(lit)
                if value is True or -lit in seen:
                    satisfied = True
                    break
                if value is False or lit in seen:
                    continue
                seen.add(lit)
                lits.append(lit)
            if satisfied:
                changed = True
                continue
            if not lits:
                state.ok = False
                return
            if len(lits) == 1:
                if not state._assign_lit(lits[0]):
                    state.ok = False
                    return
                changed = True
                continue
            if len(lits) != len(clause):
                changed = True
            kept_clauses.append(lits)
        state.clauses = kept_clauses

        kept_xors: list[tuple[set[int], bool]] = []
        for variables, rhs in state.xors:
            free = {v for v in variables if v not in state.assign}
            if len(free) != len(variables):
                parity = sum(1 for v in variables
                             if state.assign.get(v)) & 1
                rhs = bool(rhs ^ parity)
                variables = free
                changed = True
            if not variables:
                if rhs:
                    state.ok = False
                    return
                continue
            if len(variables) == 1:
                (var,) = variables
                if not state._assign_lit(var if rhs else -var):
                    state.ok = False
                    return
                changed = True
                continue
            kept_xors.append((variables, rhs))
        state.xors = kept_xors
    if stats is not None:
        stats.units_fixed += len(state.assign) - before


# ----------------------------------------------------------------------
# stage 2: equivalent-literal substitution
# ----------------------------------------------------------------------
def _literal_sccs(state: CnfState) -> list[list[int]]:
    """SCCs of the binary-implication graph, as literal lists.

    Nodes are literals; a binary clause (a, b) yields -a -> b and
    -b -> a; a size-2 XOR row adds both equivalence directions.
    Iterative Tarjan keeps deep chains off the Python stack.
    """
    edges: dict[int, list[int]] = {}

    def add_edge(src: int, dst: int) -> None:
        edges.setdefault(src, []).append(dst)

    for clause in state.clauses:
        if len(clause) == 2:
            a, b = clause
            add_edge(-a, b)
            add_edge(-b, a)
    for variables, rhs in state.xors:
        if len(variables) == 2:
            x, y = sorted(variables)
            # x ^ y = rhs: x <-> (y ^ rhs)
            other = -y if rhs else y
            add_edge(x, other)
            add_edge(other, x)
            add_edge(-x, -other)
            add_edge(-other, -x)

    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]

    for root in sorted(edges):
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(component)
    return sccs


def substitute_equivalents(state: CnfState, stats=None) -> None:
    """Replace every unprotected literal by its SCC representative."""
    if not state.ok:
        return
    substitution: dict[int, int] = {}  # positive var -> replacement lit
    for component in _literal_sccs(state):
        variables = {abs(lit) for lit in component}
        if len(variables) < len(component):
            # a literal and its negation are equivalent: unsatisfiable
            state.ok = False
            return
        frozen = sorted(lit for lit in component
                        if abs(lit) in state.frozen)
        representative = frozen[0] if frozen else min(
            component, key=abs)
        rep_var = abs(representative)
        for lit in component:
            var = abs(lit)
            if var == rep_var:
                continue
            if var in state.frozen:
                # two protected bits proved equivalent: keep both in the
                # formula, but record the alias for support minimisation
                if rep_var in state.frozen:
                    same = (lit > 0) == (representative > 0)
                    state.aliases[var] = (rep_var, same)
                continue
            # lit == representative, so +var maps to +-representative
            substitution[var] = (representative if lit > 0
                                 else -representative)

    if not substitution:
        propagate_units(state, stats)
        return

    # SCCs partition the literals and representatives are never mapped
    # themselves, so one step reaches the fixpoint.
    def map_lit(lit: int) -> int:
        while abs(lit) in substitution:
            replacement = substitution[abs(lit)]
            lit = replacement if lit > 0 else -replacement
        return lit

    new_clauses: list[list[int]] = []
    for clause in state.clauses:
        lits: list[int] = []
        seen: set[int] = set()
        tautology = False
        for lit in clause:
            lit = map_lit(lit)
            if -lit in seen:
                tautology = True
                break
            if lit in seen:
                continue
            seen.add(lit)
            lits.append(lit)
        if tautology:
            continue
        new_clauses.append(lits)
    state.clauses = new_clauses

    new_xors: list[tuple[set[int], bool]] = []
    for variables, rhs in state.xors:
        mask: set[int] = set()
        for var in variables:
            lit = map_lit(var)
            if lit < 0:
                rhs = not rhs
                lit = -lit
            # x ^ x cancels
            if lit in mask:
                mask.discard(lit)
            else:
                mask.add(lit)
        new_xors.append((mask, rhs))
    state.xors = new_xors

    if stats is not None:
        stats.literals_substituted += len(substitution)
    # substitution creates units, duplicates and empty rows: re-propagate
    propagate_units(state, stats)


# ----------------------------------------------------------------------
# stage 3: failed-literal probing
# ----------------------------------------------------------------------
def _probe_bcp(state: CnfState, occ, xocc, lit: int,
               budget: int) -> tuple[bool | None, int]:
    """BCP under the assumption ``lit`` on top of the root assignment.

    Returns ``(verdict, steps)``: verdict False when the assumption
    propagates to a conflict (the literal *failed*), True when a
    conflict-free fixpoint was reached, None when the step budget ran
    out (inconclusive — the probe is abandoned, never acted on).
    """
    overlay: dict[int, bool] = {abs(lit): lit > 0}
    queue = [abs(lit)]
    steps = 0

    def lit_value(q: int) -> bool | None:
        value = overlay.get(abs(q))
        if value is None:
            value = state.assign.get(abs(q))
        if value is None:
            return None
        return value if q > 0 else not value

    while queue:
        var = queue.pop()
        steps += 1
        if steps > budget:
            return None, steps
        for cid in occ.get(var, ()):
            unit = 0
            open_count = 0
            satisfied = False
            for q in state.clauses[cid]:
                value = lit_value(q)
                if value is True:
                    satisfied = True
                    break
                if value is None:
                    open_count += 1
                    if open_count > 1:
                        break
                    unit = q
            if satisfied or open_count > 1:
                continue
            if open_count == 0:
                return False, steps
            overlay[abs(unit)] = unit > 0
            queue.append(abs(unit))
        for xid in xocc.get(var, ()):
            variables, rhs = state.xors[xid]
            parity = rhs
            open_var = 0
            open_count = 0
            for v in variables:
                value = lit_value(v)
                if value is None:
                    open_count += 1
                    if open_count > 1:
                        break
                    open_var = v
                elif value:
                    parity = not parity
            if open_count > 1:
                continue
            if open_count == 0:
                if parity:
                    return False, steps
                continue
            overlay[open_var] = bool(parity)
            queue.append(open_var)
    return True, steps


def probe_failed_literals(state: CnfState, stats=None) -> None:
    """Assert the negation of every literal whose assumption fails.

    For each candidate literal l, assume it and propagate: if BCP
    derives a conflict then F entails -l, so asserting -l yields an
    *equivalent* formula (same models, hence the same projected count —
    no protection check is needed; entailed units are sound for any
    variable, frozen or not).  Candidates are the variables rooting
    binary-implication chains (those occurring in binary clauses or
    size-2 XOR rows), probed in both polarities in variable order so
    the stage is deterministic.
    """
    if not state.ok:
        return
    propagate_units(state, stats)
    if not state.ok:
        return
    occ: dict[int, list[int]] = {}
    for cid, clause in enumerate(state.clauses):
        for lit in clause:
            occ.setdefault(abs(lit), []).append(cid)
    xocc: dict[int, list[int]] = {}
    binary_vars: set[int] = set()
    for xid, (variables, _) in enumerate(state.xors):
        for var in variables:
            xocc.setdefault(var, []).append(xid)
        if len(variables) == 2:
            binary_vars |= variables
    for clause in state.clauses:
        if len(clause) == 2:
            binary_vars.update(abs(lit) for lit in clause)

    candidates = sorted(binary_vars)[:_PROBE_MAX_VARS]
    remaining = _PROBE_TOTAL_BUDGET
    failed = 0
    for var in candidates:
        if remaining <= 0:
            break
        if var in state.assign:
            continue
        for lit in (var, -var):
            if var in state.assign:
                break  # the first polarity failed and was asserted
            verdict, steps = _probe_bcp(
                state, occ, xocc, lit,
                min(_PROBE_STEP_BUDGET, remaining))
            remaining -= steps
            if verdict is False:
                failed += 1
                if not state._assign_lit(-lit):
                    state.ok = False
                    return
            if remaining <= 0:
                break
    if stats is not None:
        stats.failed_literals += failed
    if failed:
        # the new units shrink clauses and XOR rows; occurrence lists
        # above were only read against the pre-probe clause list
        propagate_units(state, stats)


# ----------------------------------------------------------------------
# stage 4: bounded variable elimination (NiVER)
# ----------------------------------------------------------------------
def eliminate_auxiliaries(state: CnfState, stats=None,
                          candidates=None) -> None:
    """Resolution-eliminate unprotected variables.

    A pivot must be unprotected, unassigned and absent from every XOR
    row; elimination happens only when the non-tautological resolvent
    set is no larger than the clauses it replaces (NiVER's criterion),
    so the clause database never grows.  Pivots are tried once each in
    ascending order: every variable, or only ``candidates`` when given.
    """
    if not state.ok:
        return
    xor_vars: set[int] = set()
    for variables, _ in state.xors:
        xor_vars |= variables

    clauses: dict[int, list[int]] = dict(enumerate(state.clauses))
    occurrences: dict[int, set[int]] = {}
    for cid, clause in clauses.items():
        for lit in clause:
            occurrences.setdefault(abs(lit), set()).add(cid)
    next_id = len(state.clauses)
    eliminated = 0
    removed = 0
    added = 0

    pivots = (range(1, state.num_vars + 1) if candidates is None
              else sorted(candidates))
    for var in pivots:
        if (var in state.frozen or var in xor_vars
                or var in state.assign):
            continue
        ids = occurrences.get(var)
        if not ids:
            continue
        pos = [cid for cid in ids if var in clauses[cid]]
        neg = [cid for cid in ids if -var in clauses[cid]]
        if (len(pos) + len(neg) > _BVE_MAX_OCCURRENCES
                or len(pos) * len(neg) > _BVE_MAX_PRODUCT):
            continue
        resolvents: list[list[int]] = []
        feasible = True
        for pid in pos:
            for nid in neg:
                merged: list[int] = []
                seen: set[int] = set()
                tautology = False
                for lit in clauses[pid] + clauses[nid]:
                    if abs(lit) == var:
                        continue
                    if -lit in seen:
                        tautology = True
                        break
                    if lit not in seen:
                        seen.add(lit)
                        merged.append(lit)
                if tautology:
                    continue
                resolvents.append(merged)
                if len(resolvents) > len(pos) + len(neg):
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        # commit: drop the pivot's clauses, add the resolvents
        for cid in pos + neg:
            for lit in clauses[cid]:
                bucket = occurrences.get(abs(lit))
                if bucket is not None:
                    bucket.discard(cid)
            del clauses[cid]
            removed += 1
        for resolvent in resolvents:
            if not resolvent:
                state.ok = False
                return
            clauses[next_id] = resolvent
            for lit in resolvent:
                occurrences.setdefault(abs(lit), set()).add(next_id)
            next_id += 1
            added += 1
        occurrences.pop(var, None)
        eliminated += 1

    state.clauses = [clauses[cid] for cid in sorted(clauses)]
    if stats is not None:
        stats.aux_eliminated += eliminated
        stats.clauses_removed += removed
        stats.clauses_added += added
    # unit resolvents join the root assignment
    propagate_units(state, stats)


# ----------------------------------------------------------------------
# stage 5: blocked-clause elimination
# ----------------------------------------------------------------------
def eliminate_blocked_clauses(state: CnfState, stats=None,
                              candidates=None) -> None:
    """Remove clauses blocked on an unprotected, XOR-free literal.

    A clause C is *blocked* on its literal l when every resolvent of C
    with a clause containing -l is tautological (Kullmann 1999).
    Removing C preserves the projected count when ``var(l)`` is
    unprotected, unassigned and on no XOR row: any model of F \\ {C}
    falsifying C is repaired by flipping ``var(l)`` — the flip
    satisfies C and every clause containing l, keeps every clause
    containing -l satisfied (by the tautology condition each such
    clause holds another literal true in the flipped model), and
    touches neither the projection bits nor any parity row.  Per
    projection assignment, extendability is therefore unchanged in both
    directions (F ⊆ F \\ {C} gives the converse), which is exactly
    projected-count preservation.  Removal order does not matter: BCE
    is confluent, so the fixpoint is well-defined.

    Only literals of ``candidates`` (default: every variable) are
    checked.  Whether C is blocked on l depends only on the clauses
    holding -l, so a removal re-queues the variables of the removed
    clause and nothing else.
    """
    if not state.ok:
        return
    xor_vars: set[int] = set()
    for variables, _ in state.xors:
        xor_vars |= variables

    clauses: dict[int, list[int]] = dict(enumerate(state.clauses))
    occ: dict[int, set[int]] = {}
    for cid, clause in clauses.items():
        for lit in clause:
            occ.setdefault(lit, set()).add(cid)

    removed = 0
    pending = set(range(1, state.num_vars + 1) if candidates is None
                  else candidates)
    while pending:
        check, pending = pending, set()
        ids = {cid for var in check for lit in (var, -var)
               for cid in occ.get(lit, ())}
        for cid in sorted(ids):
            clause = clauses.get(cid)
            if clause is None:
                continue
            others = set(clause)
            for lit in clause:
                var = abs(lit)
                if (var not in check or var in state.frozen
                        or var in xor_vars or var in state.assign):
                    continue
                partners = occ.get(-lit, ())
                if len(partners) > _BCE_MAX_OCCURRENCES:
                    continue
                blocked = True
                for did in partners:
                    resolvent_taut = any(
                        m != -lit and -m in others
                        for m in clauses[did])
                    if not resolvent_taut:
                        blocked = False
                        break
                if blocked:
                    for m in clause:
                        occ[m].discard(cid)
                    del clauses[cid]
                    removed += 1
                    pending.update(abs(m) for m in clause)
                    break

    state.clauses = [clauses[cid] for cid in sorted(clauses)]
    if stats is not None:
        stats.blocked_clauses += removed


def _drop_duplicate_clauses(state: CnfState, stats=None) -> None:
    """Keep the first clause of each literal set (same models)."""
    seen: set[frozenset[int]] = set()
    kept: list[list[int]] = []
    for clause in state.clauses:
        key = frozenset(clause)
        if key not in seen:
            seen.add(key)
            kept.append(clause)
    if stats is not None:
        stats.clauses_removed += len(state.clauses) - len(kept)
    state.clauses = kept


def _eliminate_to_fixpoint(state: CnfState, bve: bool, bce: bool,
                           stats=None) -> None:
    """Rounds of duplicate removal, BVE and BCE until one changes nothing.

    One BVE pass in variable order misses a variable that becomes
    eliminable later in the pass, after BCE, or once a duplicate clause
    is gone.  So the stages repeat (SatELite's touched-variable loop,
    Eén & Biere 2005).  The first round tries every variable; each later
    round tries only the variables whose occurrence lists the previous
    round changed, in ascending order, so the result is a pure function
    of the input.  Those are the variables of the clauses it removed or
    shrank: a resolvent only holds variables of the clauses it replaces.
    Every stage preserves the projected count.  A productive round takes
    at least one variable out of the clauses (a BVE pivot, a propagated
    unit) or drops a clause (a duplicate, a blocked clause), and no
    stage brings a variable back or adds clauses on balance, so the
    loop ends.
    """
    candidates = None
    while state.ok:
        before = Counter(map(tuple, state.clauses))
        _drop_duplicate_clauses(state, stats)
        if bve:
            eliminate_auxiliaries(state, stats, candidates)
        if bce:
            eliminate_blocked_clauses(state, stats, candidates)
        gone = before - Counter(map(tuple, state.clauses))
        candidates = {abs(lit) for clause in gone for lit in clause}
        if not candidates:
            return


# ----------------------------------------------------------------------
# stage 6: projection-support minimisation (analysis only)
# ----------------------------------------------------------------------
def minimise_support(state: CnfState, flat_bits: list[int],
                     stats=None) -> tuple[int, ...]:
    """Minimal projection support as flat-bit positions.

    A bit leaves the reported support when its value is a function of
    the bits that remain: *fixed* bits (root-assigned) and *aliased*
    bits (equivalent, up to polarity, to an earlier projection bit that
    stays in the support).  Free bits — touching no clause and no XOR
    row — stay: each one doubles the count and an external counter must
    know.  Analysis only: the formula and the projection->bit map are
    untouched.
    """
    constrained: set[int] = set()
    for clause in state.clauses:
        constrained.update(abs(lit) for lit in clause)
    for variables, _ in state.xors:
        constrained |= variables

    support: list[int] = []
    fixed = aliased = free = 0
    kept_vars: set[int] = set()
    for position, lit in enumerate(flat_bits):
        var = abs(lit)
        if var in state.assign:
            fixed += 1
            continue
        alias = state.aliases.get(var)
        if alias is not None and alias[0] in kept_vars:
            aliased += 1
            continue
        if var not in constrained:
            free += 1
        support.append(position)
        kept_vars.add(var)
    if stats is not None:
        stats.support_total += len(flat_bits)
        stats.support_fixed += fixed
        stats.support_free += free
        stats.support_aliased += aliased
    return tuple(support)


def run_stages(snap: SatSnapshot, frozen: set[int],
               flat_bits: list[int], stages=STAGES,
               stats=None) -> tuple[SatSnapshot, tuple[int, ...]]:
    """Run the selected simplification stages in canonical order.

    ``bve`` and ``bce`` run together, alternated to a fixpoint.  Returns
    the simplified snapshot and the minimised support (the full
    position range when the support stage is not selected).
    """
    state = CnfState(snap, frozen)
    support = tuple(range(len(flat_bits)))
    if "units" in stages:
        propagate_units(state, stats)
    if "equiv" in stages:
        substitute_equivalents(state, stats)
    if "probe" in stages:
        probe_failed_literals(state, stats)
    if "bve" in stages or "bce" in stages:
        _eliminate_to_fixpoint(state, "bve" in stages, "bce" in stages,
                               stats)
    if "support" in stages:
        support = minimise_support(state, flat_bits, stats)
    return state.to_snapshot(), support
