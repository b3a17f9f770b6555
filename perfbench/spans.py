"""In-memory spans around calls into each layer of ``repro``.

The traced run installs a wrapper on every public function named in
:data:`LAYERS`, at the place its caller looks the name up (a function
``pact.py`` imports by name is patched in ``repro.core.pact``, not where
it is defined).  Each wrapper records one span: layer name, parent layer,
start, end, the time its direct child spans cover, and the operation it
belongs to.  A recursive function records only its outermost call.  Spans stay in memory until
the run ends; :meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time

# (layer, module, attribute path).  Several entries may share a layer:
# then a call nested inside another call of the same layer is not
# recorded again (the three BitBlaster entry points recurse into each
# other, and only the outermost call is the layer's work).
LAYERS = (
    ("api.session", "repro.api.session", "Session.count"),
    ("api.counter", "repro.api.registry", "PactCounter.count"),
    ("api.counter", "repro.api.registry", "CcCounter.count"),
    ("smt.parse", "repro.api.problem", "Problem.from_script"),
    ("smt.preprocess", "repro.smt.preprocess", "Preprocessor.process"),
    ("smt.bitblast", "repro.smt.bitblast.blaster", "BitBlaster.assert_bool"),
    ("smt.bitblast", "repro.smt.bitblast.blaster", "BitBlaster.blast_bool"),
    ("smt.bitblast", "repro.smt.bitblast.blaster", "BitBlaster.blast_bv"),
    ("smt.check", "repro.smt.solver", "SmtSolver.check"),
    ("smt.lra_check", "repro.smt.theories.lra.theory", "LraTheory.check"),
    ("sat.solve", "repro.sat.kernel", "CdclDriver.solve"),
    ("core.cells", "repro.core.pact", "saturating_count"),
    ("core.hash", "repro.core.pact", "generate_hash"),
    ("core.hash", "repro.core.hashes", "HashConstraint.assert_into"),
    ("compile.total", "repro.compile.memo", "compile_problem"),
    ("compile.units", "repro.compile.simplify", "propagate_units"),
    ("compile.equiv", "repro.compile.simplify", "substitute_equivalents"),
    ("compile.probe", "repro.compile.simplify", "probe_failed_literals"),
    ("compile.bve", "repro.compile.simplify", "eliminate_auxiliaries"),
    ("compile.bce", "repro.compile.simplify", "eliminate_blocked_clauses"),
    ("compile.support", "repro.compile.simplify", "minimise_support"),
    ("count_exact.closure", "repro.count_exact.counter", "lra_closure"),
    ("count_exact.presolve", "repro.count_exact.counter", "presolve_lemmas"),
    ("count_exact.snapshot", "repro.count_exact.counter", "count_snapshot"),
    ("engine.pool.run", "repro.engine.pool", "ExecutionPool.run"),
    ("serve.store_get", "repro.serve.store", "SqliteStore.get"),
    ("serve.store_put", "repro.serve.store", "SqliteStore.put"),
    ("serve.store_flush", "repro.serve.store", "SqliteStore.flush"),
)


_SOLVE_STATS = ("decisions", "conflicts", "propagations")


def _observers() -> dict:
    """Per-layer hooks that turn a call into counts: ``(capture,
    observe)``, where ``capture(args)`` runs before the call and
    ``observe(args, captured, result)`` after it."""
    from repro.core.cells import SATURATED

    def cells(_args, _captured, result) -> dict:
        return {"core.saturated": 1 if result is SATURATED else 0}

    def compiled(_args, _captured, artifact) -> dict:
        return {"compile.raw_clauses": artifact.stats.raw_clauses,
                "compile.clauses": artifact.stats.clauses}

    # The CDCL driver's own counters, read around each solve: complete in
    # every thread, unlike TELEMETRY, which pool iterations never feed.
    def before_solve(args) -> tuple:
        stats = args[0].stats
        return tuple(stats[key] for key in _SOLVE_STATS)

    def solved(args, captured, _result) -> dict:
        stats = args[0].stats
        counts = {f"sat.{key}": stats[key] - start
                  for key, start in zip(_SOLVE_STATS, captured)}
        counts["sat.solves"] = 1
        return counts

    return {"core.cells": (None, cells), "compile.total": (None, compiled),
            "sat.solve": (before_solve, solved)}


class Recorder:
    """Collects spans from every thread of one process.

    A span is the tuple ``(op, layer, parent, start, end, child)``:
    ``parent`` is the enclosing layer (``None`` at top level), ``child``
    the time covered by direct child spans, so self time is
    ``end - start - child``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._ops = itertools.count()
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn, observer=(None, None)):
        local, spans, clock = self._local, self.spans, time.perf_counter
        capture, observe = observer

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = set()
            if layer in local.active:
                return fn(*args, **kwargs)
            if stack:
                op = stack[-1][2]
            else:
                op = getattr(local, "op", None)
                if op is None:
                    op = next(self._ops)
            captured = capture(args) if capture is not None else None
            frame = [layer, 0.0, op]
            stack.append(frame)
            local.active.add(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.active.discard(layer)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                spans.append((op, layer, parent[0] if parent else None,
                              start, end, frame[1]))
            if observe is not None:
                increments = observe(args, captured, result)
                with self._lock:
                    for key, value in increments.items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Recorder":
        """Patch every entry of :data:`LAYERS`; :meth:`uninstall` puts
        the originals back."""
        observers = _observers()
        for layer, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            observer = observers.get(layer, (None, None))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, raw.__func__,
                                                observer))
            else:
                wrapped = self.wrap(layer, raw, observer)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def set_op(self, op) -> None:
        """Tag the calling thread's next top-level spans with ``op``.
        Threads that never call this (the server's request threads) get
        a fresh operation per top-level span."""
        self._local.op = op

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counts to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path) -> tuple[list[tuple], dict]:
    """Read what :meth:`Recorder.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        counts = json.loads(handle.readline())["counts"]
        spans = [tuple(json.loads(line)) for line in handle if line.strip()]
    return spans, counts


def layer_totals(spans) -> dict:
    """Summed inclusive time, self time and call count per layer, plus
    the time of each (parent, child) pair."""
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    pairs: dict[tuple, float] = {}
    for _op, layer, parent, start, end, child in spans:
        duration = end - start
        inclusive[layer] = inclusive.get(layer, 0.0) + duration
        self_time[layer] = self_time.get(layer, 0.0) + duration - child
        calls[layer] = calls.get(layer, 0) + 1
        key = (parent, layer)
        pairs[key] = pairs.get(key, 0.0) + duration
    return {"inclusive": inclusive, "self": self_time, "calls": calls,
            "pairs": pairs}


def top_level_by_op(spans) -> dict:
    """Summed top-level span time per operation id."""
    covered: dict[int, float] = {}
    for op, _layer, parent, start, end, _child in spans:
        if parent is None:
            covered[op] = covered.get(op, 0.0) + end - start
    return covered
