"""The projected component-caching exact counter (``exact:cc``).

A sharpSAT/Cachet-style counter (Thurley 2006; Sang et al. 2004) over
the compiled clause DB, specialised to *projected* counting:

* **DPLL-style search, projection-aware branching** — the search
  branches only on projection bits.  Once a piece of the formula
  contains no projection bit, its projected count is its satisfiability
  (1 or 0), decided by the same search as a subproblem.
* **Connected-component decomposition** — after every propagation the
  residual formula is split into variable-disjoint components
  (:meth:`repro.sat.kernel.ClauseDB.split`); their projected counts
  multiply.  Unconstrained ("free") projection bits contribute a
  factor of 2 each and are never searched.
* **Component caching** — every component's count is cached under its
  canonical signature (:mod:`repro.count_exact.signature`), so
  structurally repeated subformulas — ubiquitous under comparator and
  adder circuits — are counted once.  With a component store attached
  (the ``components`` table of :class:`repro.serve.store.SqliteStore`),
  the cache is also consulted from and flushed to disk, so the facts
  survive the process and are shared across worker processes and runs.
* **Component parallelism** — under a process pool
  (:attr:`repro.engine.pool.ExecutionPool.cpu_parallel`), top-level
  components (and cube-and-conquer splits of components with wide
  projected support) are dispatched to worker processes as picklable
  residual subproblems (:mod:`repro.count_exact.parallel`); their
  counts multiply (cubes of one component sum), bit-identical to the
  serial product.  A thread pool never splits a count: only processes
  run Python at the same time.
* **Conflict learning** — the search runs on the kernel's
  :class:`repro.sat.kernel.ComponentDriver`, which resolves every
  propagation conflict back to its decision literals and keeps the
  learnt clause; clauses learned inside one component prune sibling
  branches that repeat the same doomed prefix.  Learnt clauses never
  enter the occurrence index, so residual signatures — the cache keys
  — are untouched.  Soundness of caching under learning follows
  Cachet's discipline: a learnt clause prunes correctly inside a
  component only if every *sibling* component of the enclosing scopes
  is satisfiable, so whenever a scope's product hits zero every cache
  entry inserted during that scope is purged (see
  :meth:`_Search._purge`).  Only entries that survive to a clean
  completion are ever flushed to the disk store.
* **Theory exactness** — XOR rows propagate natively; lazy LRA atoms
  are closed eagerly into blocking clauses before the search
  (:mod:`repro.count_exact.closure`), so the Boolean projected count
  equals the SMT projected count on every supported logic.

Where ``enum`` pays one full CDCL solve *per projected model*, this
search visits each distinct residual component once — turning exact
counting from O(#models) solver calls into search over the clause DB.
"""

from __future__ import annotations

import time

from repro.core.result import CountResult
from repro.count_exact.closure import lra_closure
from repro.count_exact.signature import (
    component_signature, projection_occurrences,
)
from repro.errors import CounterError, SolverTimeoutError
from repro.sat.kernel import (
    TELEMETRY, Component, ComponentDriver, FALSE_V, TRUE_V, build_driver,
    presolve_lemmas,
)
from repro.smt.terms import Term
from repro.status import Status
from repro.utils.deadline import Deadline

__all__ = ["CcStats", "cc_count", "count_compiled", "count_snapshot"]

_DEADLINE_CHECK_INTERVAL = 256  # decisions between deadline polls


class CcStats:
    """Accounting for one component-caching count.

    All fields are additive tallies, so worker-side instances merge
    into the parent's by plain summation (:meth:`merge`) — the same
    contract as :meth:`repro.core.cells.CallCounter.merge`, minus the
    lock: a ``CcStats`` is only ever written by the search (or merge
    loop) that owns it.
    """

    __slots__ = ("decisions", "components", "cache_hits", "cache_misses",
                 "sat_checks", "free_bits", "closure_atoms",
                 "closure_checks", "closure_clauses", "conflicts",
                 "learned", "learnt_evicted", "purged", "shared_units",
                 "shared_clauses", "propagations", "store_hits",
                 "dispatched")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain (picklable) dict."""
        return {name: getattr(self, name) for name in self.__slots__}

    def merge(self, other) -> None:
        """Fold another stats object (or its :meth:`as_dict` image —
        the form worker payloads travel in) into this one, by sum."""
        if isinstance(other, CcStats):
            other = other.as_dict()
        for name in self.__slots__:
            increment = other.get(name, 0)
            if increment:
                setattr(self, name, getattr(self, name) + increment)

    def as_detail(self) -> str:
        """The compact stats string persisted with the result (the
        engine cache stores it in the entry's ``detail`` field)."""
        parts = [f"cc: decisions={self.decisions}",
                 f"components={self.components}",
                 f"cache_hits={self.cache_hits}",
                 f"cache_entries={self.cache_misses}",
                 f"sat_checks={self.sat_checks}",
                 f"free_bits={self.free_bits}"]
        if self.dispatched:
            parts.append(f"dispatched={self.dispatched}")
        if self.store_hits:
            parts.append(f"store_hits={self.store_hits}")
        if self.conflicts or self.learned:
            parts.append(
                f"learning={self.learned} learnt/"
                f"{self.conflicts} conflicts/"
                f"{self.purged} purged/"
                f"{self.learnt_evicted} evicted")
        if self.shared_units or self.shared_clauses:
            parts.append(
                f"shared={self.shared_units} units/"
                f"{self.shared_clauses} clauses")
        if self.closure_atoms:
            parts.append(
                f"closure={self.closure_atoms} atoms/"
                f"{self.closure_checks} checks/"
                f"{self.closure_clauses} clauses")
        return " ".join(parts)


class _Search:
    """The search: one instance per count, state on the trail.

    Assignment state, propagation and conflict learning live in the
    :class:`repro.sat.kernel.ComponentDriver`; this class owns the
    counting policy — branching, decomposition, the component cache and
    its purge discipline.
    """

    def __init__(self, driver: ComponentDriver, projection: frozenset,
                 deadline: Deadline, stats: CcStats):
        self.driver = driver
        self.projection = projection
        self.deadline = deadline
        self.stats = stats
        self.cache: dict[tuple, int] = {}
        # Insertion-ordered log of live cache keys: the purge discipline
        # pops every key inserted after a scope's watermark (slicing the
        # tail off the log), so a key appears at most once in the log.
        self._cache_log: list[tuple] = []
        # Signatures seeded from the component store: context-free facts
        # established by a previous (or sibling) search, never logged —
        # so never purged and never re-flushed.
        self.seeded: set[tuple] = set()

    # ------------------------------------------------------------------
    def assert_roots(self, units) -> bool:
        """Assert the snapshot's root units and propagate; False = UNSAT."""
        return self.driver.assert_roots(units)

    def seed_cache(self, entries: dict[tuple, int]) -> None:
        """Warm the cache with store entries (hits count as
        ``store_hits``; the entries stay out of the purge log)."""
        for signature, count in entries.items():
            if signature not in self.cache:
                self.cache[signature] = count
                self.seeded.add(signature)

    def record(self, signature: tuple, count: int) -> None:
        """Record an externally computed component count (a dispatched
        subproblem's result — exact by construction, since the worker
        ran a complete independent search)."""
        self.cache[signature] = count
        self._cache_log.append(signature)

    def flushable(self) -> dict[tuple, int]:
        """The entries a clean completion may persist: everything that
        survived the purge discipline, minus the seeded facts the store
        already holds."""
        return {signature: self.cache[signature]
                for signature in self._cache_log}

    def count_scope(self, scope) -> int:
        """Projected count of the residual formula over ``scope``
        (unassigned variables), searched on an explicit stack.

        The search steps — :meth:`_scope`, :meth:`_component`,
        :meth:`_branch` and :meth:`_satisfiable` — are generators held
        on a list: a step yields a sub-search where it needs one, and
        the loop sends the finished count back to it.  Search depth is
        bounded by memory, not by the interpreter's recursion limit.
        When a step raises, the open steps are closed innermost first,
        so every ``finally: driver.unwind(mark)`` runs on the way out.
        """
        stack = [self._scope(scope)]
        count = None
        try:
            while stack:
                try:
                    child = stack[-1].send(count)
                except StopIteration as done:
                    stack.pop()
                    count = done.value
                else:
                    stack.append(child)
                    count = None
        finally:
            while stack:
                stack.pop().close()
        return count

    def _scope(self, scope):
        """Free-bit factor times the product of the component counts.

        If any component counts to zero, every cache entry inserted
        while counting this scope is purged: sibling counts computed
        next to an unsatisfiable component may have been pruned by
        learnt clauses whose context cannot be extended to a model, so
        they are lower bounds, not counts (Sang et al. 2004).  The zero product itself is always sound — an
        unsatisfiable piece zeroes the scope no matter what the
        siblings were.
        """
        components, free = self.driver.split(scope)
        free_projection = sum(1 for var in free if var in self.projection)
        self.stats.free_bits += free_projection
        result = 1 << free_projection
        watermark = len(self._cache_log)
        for component in components:
            if result == 0:
                break
            result *= yield self._component(component)
        if result == 0:
            self._purge(watermark)
        return result

    def _component(self, component: Component):
        """The projected count of one component, through the cache."""
        self.stats.components += 1
        signature = component_signature(self.driver.db, self.driver.values,
                                        component)
        cached = self.cache.get(signature)
        if cached is not None:
            if signature in self.seeded:
                self.stats.store_hits += 1
            else:
                self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        branch = self._pick_branch_variable(signature)
        if branch is None:
            self.stats.sat_checks += 1
            result = yield self._satisfiable(component)
        else:
            result = ((yield self._branch(component, branch, TRUE_V))
                      + (yield self._branch(component, branch, FALSE_V)))
        self.cache[signature] = result
        self._cache_log.append(signature)
        return result

    # ------------------------------------------------------------------
    def _purge(self, watermark: int) -> None:
        """Drop every cache entry inserted after ``watermark``.

        Entries are popped in insertion order off the log tail; a key in
        the tail was inserted (not hit) there, so it is live in the
        cache exactly once and the pop removes precisely the suspect
        entries.
        """
        if watermark >= len(self._cache_log):
            return
        tail = self._cache_log[watermark:]
        del self._cache_log[watermark:]
        for signature in tail:
            self.cache.pop(signature, None)
        self.stats.purged += len(tail)

    # ------------------------------------------------------------------
    def _pick_branch_variable(self, signature: tuple) -> int | None:
        """The projection bit with the most active occurrences in the
        component (ties to the smallest id); None if the component has
        no projection bits left."""
        occurrences = projection_occurrences(signature, self.projection)
        if not occurrences:
            return None
        return min(occurrences,
                   key=lambda var: (-occurrences[var], var))

    def _decide(self, var: int, value: int) -> int | None:
        """Assign ``var`` and propagate; trail mark on success, else None
        (with the trail already unwound and any conflict learned)."""
        self.stats.decisions += 1
        if self.stats.decisions % _DEADLINE_CHECK_INTERVAL == 0:
            self.deadline.check()
        return self.driver.decide(var if value == TRUE_V else -var)

    def _branch(self, component: Component, var: int, value: int):
        mark = self._decide(var, value)
        if mark is None:
            return 0
        try:
            return (yield self._scope(component.variables))
        finally:
            self.driver.unwind(mark)

    def _satisfiable(self, component: Component):
        """Satisfiability of a projection-free component, as 0/1.

        Plain DPLL with the same decomposition: after a decision the
        component may fall apart, and every piece (cached like any other
        component) must be satisfiable.  A branch whose pieces are not
        all satisfiable purges the entries it inserted, exactly like a
        zero scope — counts cached next to the unsatisfiable piece may
        have been over-pruned by learnt clauses.
        """
        branch = component.variables[0]
        for value in (TRUE_V, FALSE_V):
            mark = self._decide(branch, value)
            if mark is None:
                continue
            watermark = len(self._cache_log)
            try:
                components, _free = self.driver.split(component.variables)
                for piece in components:
                    if not (yield self._component(piece)):
                        self._purge(watermark)
                        break
                else:
                    return 1
            finally:
                self.driver.unwind(mark)
        return 0


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def count_snapshot(snapshot, projection, *, deadline: Deadline | None = None,
                   timeout: float | None = None,
                   extra_clauses=(), pool=None, component_store=None,
                   presolve: bool = True,
                   stats: CcStats | None = None) -> CountResult:
    """Count a :class:`repro.sat.kernel.SatSnapshot` exactly, projected
    onto ``projection`` (an iterable of SAT variable ids).

    This is the substrate entry both :func:`count_compiled` and the
    parallel component workers
    (:func:`repro.count_exact.parallel.count_component_task`) run on:

    * ``pool`` — a process pool
      (:attr:`repro.engine.pool.ExecutionPool.cpu_parallel`) dispatches
      top-level components (cube-split when their projected support
      is wide) to workers; counts are bit-identical to the serial
      product.  A serial or thread pool counts in this thread: only
      processes run Python at the same time.
    * ``component_store`` — path of a shared database file whose
      ``components`` table (:class:`~repro.serve.store.SqliteStore`)
      is consulted before the search and flushed after a clean
      completion (only purge-surviving entries — the
      Sang–Beame–Kautz-clean set).  A file that is not a database
      raises :class:`~repro.errors.ReproError`.
    * ``presolve`` — workers skip the shared-lemma presolve pass; the
      parent already ran it on the full formula.

    A deadline expiring mid-search surfaces as ``Status.TIMEOUT`` with
    the partial stats in ``detail``, never as a silently short count.  A
    ``KeyboardInterrupt`` propagates, after the component store is
    closed unflushed.
    """
    start = time.monotonic()
    if deadline is None:
        deadline = Deadline(timeout)
    if stats is None:
        stats = CcStats()
    projection = frozenset(projection)
    driver = None
    store = None
    remote = CcStats()
    try:
        deadline.check()
        driver = build_driver("component", snapshot,
                              extra_clauses=extra_clauses)
        search = _Search(driver, projection, deadline, stats)
        if component_store is not None:
            # Imported here: repro.serve's package import reaches
            # repro.api, which imports this module.
            from repro.serve.store import SqliteStore
            store = SqliteStore(component_store)
            search.seed_cache(store.load_components(projection))
        roots = list(snapshot.units)
        presat = snapshot.ok
        if presat and presolve:
            # Learnt-clause sharing across drivers: a bounded CDCL pass
            # over the same snapshot yields backbone literals (asserted
            # as extra roots) and short lemmas (seeded into the learnt
            # store) — every one entailed by the formula, so the count
            # is unchanged while propagation gets ahead of the search.
            verdict, shared_units, shared_clauses = presolve_lemmas(
                snapshot, deadline=deadline)
            if verdict is False:
                presat = False
            else:
                roots.extend(shared_units)
                stats.shared_units = len(shared_units)
                stats.shared_clauses = driver.seed(shared_clauses)
        if not presat or not search.assert_roots(roots):
            count = 0
        else:
            scope = range(1, driver.db.num_vars + 1)
            if pool is not None and pool.cpu_parallel:
                from repro.count_exact.parallel import count_parallel
                count = count_parallel(search, scope, pool, deadline,
                                       component_store, remote)
            else:
                count = search.count_scope(scope)
    except SolverTimeoutError:
        _merge_driver_stats(stats, driver)
        stats.merge(remote)
        return CountResult(
            estimate=None, status=Status.TIMEOUT,
            solver_calls=stats.decisions,
            time_seconds=time.monotonic() - start,
            detail=stats.as_detail())
    else:
        if store is not None:
            # Flush-on-clean: a completed search's surviving entries are
            # context-free exact counts; anything a zero scope tainted
            # was purged before it could reach the log.
            store.flush_components(search.flushable(), projection)
    finally:
        # Every exit closes the store, a lost component worker's too.
        if store is not None:
            store.close()
    _merge_driver_stats(stats, driver)
    stats.merge(remote)
    return CountResult(
        estimate=count, status=Status.OK, exact=True,
        solver_calls=stats.decisions, sat_answers=0,
        time_seconds=time.monotonic() - start, detail=stats.as_detail())


def count_compiled(artifact, *, deadline: Deadline | None = None,
                   timeout: float | None = None,
                   pool=None, component_store=None) -> CountResult:
    """Count a :class:`repro.compile.CompiledProblem` exactly.

    The artifact is the same one the pact counters solve on (shared
    through the per-process compile memo); XOR rows and root units come
    straight from its snapshot.
    ``pool`` and ``component_store`` are forwarded to
    :func:`count_snapshot`.
    """
    start = time.monotonic()
    if deadline is None:
        deadline = Deadline(timeout)
    stats = CcStats()

    flat_bits = artifact.flat_bits
    projection_vars = [abs(lit) for lit in flat_bits]
    if len(set(projection_vars)) != len(projection_vars):
        raise CounterError(
            "exact:cc requires distinct SAT variables per projection bit")

    try:
        deadline.check()
        closure = lra_closure(artifact.atoms, artifact.snapshot.units,
                              deadline=deadline)
    except SolverTimeoutError:
        return CountResult(
            estimate=None, status=Status.TIMEOUT,
            solver_calls=stats.decisions,
            time_seconds=time.monotonic() - start,
            detail=stats.as_detail())
    stats.closure_atoms = closure.atoms
    stats.closure_checks = closure.checks
    stats.closure_clauses = len(closure.clauses)
    result = count_snapshot(
        artifact.snapshot, projection_vars, deadline=deadline,
        extra_clauses=closure.clauses, pool=pool,
        component_store=component_store, stats=stats)
    result.time_seconds = time.monotonic() - start
    return result


def _merge_driver_stats(stats: CcStats, driver) -> None:
    """Fold the driver's learning counters into the count's stats and
    the process-wide kernel telemetry (once per count).

    Called *before* worker stats merge in, so the telemetry receives
    only this driver's own work — workers merged theirs in their own
    process, and the pool transports those deltas separately
    (:mod:`repro.engine.pool`); adding them here again would double
    count.
    """
    if driver is None:
        return
    counters = driver.stats()
    stats.conflicts += counters["conflicts"]
    stats.learned += counters["learned"]
    stats.learnt_evicted += counters["learnt_evicted"]
    stats.propagations += counters["propagations"]
    counters["decisions"] = stats.decisions
    TELEMETRY.merge(counters, prefix="cc.")


def cc_count(assertions, projection: list[Term],
             timeout: float | None = None, *,
             deadline: Deadline | None = None,
             digest: str | None = None,
             pool=None, component_store=None) -> CountResult:
    """Count |Sol(F)|_S| exactly by component-caching search.

    Same calling convention as the other counters: ``deadline``
    optionally replaces the ``timeout``-derived deadline; ``digest``
    short-circuits artifact hashing when the caller already has the
    compile key.
    A process ``pool`` fans top-level components out across its
    workers and ``component_store`` names the shared on-disk component
    cache (see :func:`count_snapshot`).
    """
    from repro.compile import compiled_for
    if isinstance(assertions, Term):
        assertions = [assertions]
    start = time.monotonic()
    if deadline is None:
        deadline = Deadline(timeout)
    artifact = compiled_for(list(assertions), list(projection),
                            digest=digest)
    result = count_compiled(artifact, deadline=deadline,
                            pool=pool, component_store=component_store)
    result.time_seconds = time.monotonic() - start
    return result
