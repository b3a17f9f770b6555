"""The rule catalogue: one rule per invariant from DESIGN.md.

Every rule here encodes a property the stack *already* depends on —
three of them were violated and fixed reactively before this subsystem
existed (PR 1: per-process-randomised ``hash()`` seeding broke cache
stability; PR 3: non-atomic ``CallCounter.record`` undercounted on the
thread backend; PR 6: blocking store I/O had to move behind
``asyncio.to_thread``).  The catalogue:

========================  ========  =====================================
rule id                   severity  invariant
========================  ========  =====================================
det-builtin-hash          error     no builtin ``hash()`` in fingerprint/
                                    signature/serialisation modules
det-unseeded-random       error     no global-RNG ``random.*`` there
det-wallclock             error     no ``time.time()``/``datetime.now()``
                                    there (key material must be stable
                                    across runs)
det-json-keys             error     ``json.dumps`` there must sort keys
det-set-iter              warning   no order-dependent ``set`` iteration
                                    there or in the component substrate
pickle-fanout             error     classes shipped through process
                                    fan-out hold no locks/lambdas/
                                    handles/generators
lock-discipline           error     thread-shared classes write their
                                    attributes only under the instance
                                    lock
async-blocking            error     no blocking calls on the serve
                                    event loop
status-literal            warning   no raw "ok"/"timeout"/... literals
                                    where :class:`repro.status.Status`
                                    exists
registry-discipline       warning   counter entry points resolve only
                                    through the registry
========================  ========  =====================================

Scoping is by module path (see ``DETERMINISM_MODULES`` etc. below);
rules that police specific classes (pickle-fanout, lock-discipline)
run everywhere and self-limit by class name, so a policed class that
moves between modules stays policed.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    FileContext, Rule, Severity, dotted_name,
)

__all__ = ["DETERMINISM_MODULES", "PICKLED_CLASSES",
           "THREAD_SHARED_CLASSES", "default_rules", "rules_by_id"]

# Modules whose outputs are cache keys, cache documents, canonical
# serialisations or seeded instances: anything order- or
# process-dependent here silently splits the cache or breaks the
# bit-identical serial/thread/process invariant.
DETERMINISM_MODULES = (
    "repro/api/problem.py",
    "repro/count_exact/signature.py",
    "repro/sat/dimacs.py",
    "repro/sat/kernel.py",
    "repro/compile/memo.py",
    "repro/utils/canonical.py",
    "repro/benchgen/",
)

# The exact counter builds canonical residual signatures, so its
# iteration order is determinism-relevant too (det-set-iter only).
SET_ITER_MODULES = DETERMINISM_MODULES + (
    "repro/count_exact/",
)

# Classes whose instances cross a process boundary (process-pool tasks
# pickle them).  A lock, lambda, open handle or generator attribute
# raises at pickle time — on the *process* backend only, long after the
# change that introduced it passed serial tests.
PICKLED_CLASSES = frozenset({"CdmMethod", "ComponentSpec", "CountRequest",
                             "PactConfig", "PactMethod", "Problem",
                             "Task"})

# Classes documented as shared across threads: every mutable-attribute
# write must hold the instance lock (a bare ``self.x += 1`` is a
# read-modify-write that drops updates under the thread backend — the
# PR 3 CallCounter bug).
THREAD_SHARED_CLASSES = frozenset({
    "CallCounter", "Counter", "Gauge", "Histogram", "KernelTelemetry",
    "MetricsRegistry", "SqliteStore",
})

_LOCK_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "multiprocessing.Lock",
    "multiprocessing.RLock",
})

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
})

_STATUS_VALUES = frozenset({
    "ok", "timeout", "budget", "error", "cancelled", "limit",
})

# Counter entry points and the modules that implement them; everything
# else resolves names through repro.api.registry so that sessions,
# caching and deadline handling cannot be bypassed.
_COUNTER_ENTRY_POINTS = frozenset({
    "pact_count", "cdm_count", "exact_count", "cc_count",
    "count_projected",
})
_COUNTER_MODULES = frozenset({
    "repro.core", "repro.core.pact", "repro.core.cdm",
    "repro.core.enumerate", "repro.count_exact",
    "repro.count_exact.counter",
})
_REGISTRY_ALLOWED = (
    "repro/api/", "repro/core/", "repro/count_exact/",
    # the package root re-exports the entry points as public API
    "repro/__init__.py",
)


def _walk_pruned(node, prune=(ast.Lambda,)):
    """Walk ``node`` without descending into ``prune`` subtrees (and
    without descending into nested function bodies when they are in
    ``prune``) — the async rule must not flag code that runs off-loop."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, prune):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class BuiltinHashRule(Rule):
    id = "det-builtin-hash"
    severity = Severity.ERROR
    description = ("builtin hash() is per-process randomised for "
                   "str/bytes; fingerprints must use hashlib (or "
                   "SeedSequence for seeding)")
    scope = DETERMINISM_MODULES

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                yield context.finding(
                    self, node,
                    "builtin hash() is randomised per process — use "
                    "hashlib.sha256 (keys) or SeedSequence (seeding)")


class UnseededRandomRule(Rule):
    id = "det-unseeded-random"
    severity = Severity.ERROR
    description = ("module-level random.* uses the shared global RNG; "
                   "determinism-scoped code must draw from an "
                   "explicitly seeded stream")
    scope = DETERMINISM_MODULES

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted.startswith(("numpy.random.", "np.random.")):
                yield context.finding(
                    self, node, f"{dotted}() draws from numpy's global "
                    "RNG — derive a Generator from SeedSequence")
            elif dotted.startswith("random."):
                if dotted == "random.Random" and (node.args
                                                  or node.keywords):
                    continue   # explicitly seeded stream
                yield context.finding(
                    self, node, f"{dotted}() is unseeded (global RNG or "
                    "OS entropy) — derive a stream from the run seed")


class WallclockRule(Rule):
    id = "det-wallclock"
    severity = Severity.ERROR
    description = ("wall-clock reads are run-dependent; fingerprint/"
                   "signature modules may not fold them into key "
                   "material")
    scope = DETERMINISM_MODULES

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) in _WALLCLOCK_CALLS):
                yield context.finding(
                    self, node,
                    f"{dotted_name(node.func)}() is run-dependent — "
                    "key material must be stable across runs (allow "
                    "only for non-key metadata, with an argument)")


class JsonKeysRule(Rule):
    id = "det-json-keys"
    severity = Severity.ERROR
    description = ("json.dumps in determinism-scoped modules must pass "
                   "sort_keys=True — dict order is insertion order, "
                   "which is construction-path-dependent")
    scope = DETERMINISM_MODULES

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) not in ("json.dumps", "json.dump"):
                continue
            sorts = any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords)
            if not sorts:
                yield context.finding(
                    self, node,
                    "json serialisation here feeds keys/documents — "
                    "pass sort_keys=True (or route through "
                    "repro.utils.canonical)")


class SetIterRule(Rule):
    id = "det-set-iter"
    severity = Severity.WARNING
    description = ("iterating a set materialises an order that varies "
                   "with build history (and across processes for str "
                   "elements); sort it or prove order-insensitivity "
                   "and annotate")
    scope = SET_ITER_MODULES

    @staticmethod
    def _is_set_expr(node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            sites = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                sites.extend(generator.iter
                             for generator in node.generators)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("tuple", "list")
                    and node.args):
                sites.append(node.args[0])
            for site in sites:
                if self._is_set_expr(site):
                    yield context.finding(
                        self, site,
                        "set iteration order is not canonical — wrap "
                        "in sorted(), or annotate with an "
                        "order-insensitivity argument")


# ----------------------------------------------------------------------
# pickle safety
# ----------------------------------------------------------------------
class PickleFanoutRule(Rule):
    id = "pickle-fanout"
    severity = Severity.ERROR
    description = ("classes shipped through process fan-out must not "
                   "hold locks, lambdas, open handles or generators "
                   "(pickle raises on the process backend only — long "
                   "after serial tests pass)")

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in PICKLED_CLASSES):
                yield from self._check_class(context, node)

    def _check_class(self, context: FileContext, klass: ast.ClassDef):
        methods = {stmt.name for stmt in klass.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        if methods & {"__getstate__", "__reduce__", "__reduce_ex__"}:
            return   # the class controls its own pickled form
        for stmt in klass.body:
            # dataclass fields / class attributes with defaults
            value = None
            if isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if value is not None:
                yield from self._check_value(context, klass, value)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name not in ("__getstate__", "__reduce__")):
                for inner in ast.walk(stmt):
                    if (isinstance(inner, ast.Assign)
                            and any(self._is_self_attr(target)
                                    for target in inner.targets)):
                        yield from self._check_value(
                            context, klass, inner.value, direct=True)

    @staticmethod
    def _is_self_attr(node) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _check_value(self, context: FileContext, klass: ast.ClassDef,
                     value, direct: bool = False):
        offending = self._offender(value)
        if offending is None and not direct:
            # field(default_factory=threading.Lock) and friends
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "field"):
                for keyword in value.keywords:
                    if keyword.arg == "default_factory":
                        factory = dotted_name(keyword.value)
                        if (factory in _LOCK_FACTORIES
                                or factory == "open"
                                or isinstance(keyword.value,
                                              ast.Lambda)):
                            offending = factory or "lambda"
        if offending is not None:
            yield context.finding(
                self, value,
                f"{klass.name} crosses process boundaries by pickle; "
                f"a {offending} attribute breaks that (define "
                "__getstate__ if the field is reconstructible)")

    @staticmethod
    def _offender(value) -> str | None:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.GeneratorExp):
            return "generator"
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted in _LOCK_FACTORIES:
                return dotted
            if dotted in ("open", "io.open"):
                return "open file handle"
        return None


# ----------------------------------------------------------------------
# lock discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    severity = Severity.ERROR
    description = ("thread-shared classes mutate their attributes only "
                   "under the instance lock (a bare self.x += 1 drops "
                   "updates under the thread backend)")

    # Construction and pickle plumbing run before the instance is
    # shared; nothing else is exempt.
    _EXEMPT_METHODS = frozenset({
        "__init__", "__new__", "__getstate__", "__setstate__",
        "__del__",
    })

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name in THREAD_SHARED_CLASSES):
                for stmt in node.body:
                    if (isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and stmt.name not in self._EXEMPT_METHODS):
                        yield from self._scan(context, node.name,
                                              stmt.body, locked=False)

    @staticmethod
    def _is_self_lock(node) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and "lock" in node.attr)

    def _scan(self, context: FileContext, class_name: str, statements,
              locked: bool):
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                held = locked or any(
                    self._is_self_lock(item.context_expr)
                    for item in stmt.items)
                yield from self._scan(context, class_name, stmt.body,
                                      held)
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor,
                                   ast.While)):
                yield from self._scan(context, class_name, stmt.body,
                                      locked)
                yield from self._scan(context, class_name, stmt.orelse,
                                      locked)
            elif isinstance(stmt, ast.Try):
                yield from self._scan(context, class_name, stmt.body,
                                      locked)
                for handler in stmt.handlers:
                    yield from self._scan(context, class_name,
                                          handler.body, locked)
                yield from self._scan(context, class_name, stmt.orelse,
                                      locked)
                yield from self._scan(context, class_name,
                                      stmt.finalbody, locked)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign,
                                   ast.AnnAssign)) and not locked:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        yield context.finding(
                            self, stmt,
                            f"{class_name} is documented as "
                            f"thread-shared; write self.{target.attr} "
                            "under `with self._lock:` (or move it to "
                            "an exempt construction method)")
            # nested function definitions are separate execution
            # contexts; their lock state is their callers' problem.


# ----------------------------------------------------------------------
# event-loop hygiene
# ----------------------------------------------------------------------
class AsyncBlockingRule(Rule):
    id = "async-blocking"
    severity = Severity.ERROR
    description = ("async bodies under serve/ must not block the event "
                   "loop: no time.sleep, sqlite, file/socket I/O or "
                   "Session/store calls outside asyncio.to_thread")
    scope = ("repro/serve/", "repro/cli.py")

    _BLOCKING_EXACT = frozenset({"time.sleep", "sqlite3.connect"})
    _BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.request.",
                          "requests.")
    _BLOCKING_METHODS = frozenset({
        "read_text", "write_text", "read_bytes", "write_bytes",
    })
    # Session / store entry points: blocking by design (they run whole
    # counts / disk transactions) — only reachable from a worker thread.
    _SESSION_METHODS = frozenset({
        "count", "count_batch", "portfolio", "flush", "get", "put",
    })
    _SESSION_ROOTS = frozenset({"session", "cache", "store"})

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                # Prune lambdas and nested defs: those bodies run
                # wherever they are *called* (usually a worker thread
                # via asyncio.to_thread), not on the loop.
                prune = (ast.Lambda, ast.FunctionDef,
                         ast.AsyncFunctionDef)
                for statement in node.body:
                    yield from self._scan_statement(context, statement,
                                                    prune)

    def _scan_statement(self, context: FileContext, statement, prune):
        if isinstance(statement, prune):
            return
        for child in [statement, *_walk_pruned(statement, prune)]:
            if isinstance(child, ast.Call):
                finding = self._blocking_call(context, child)
                if finding is not None:
                    yield finding

    def _blocking_call(self, context: FileContext, call: ast.Call):
        dotted = dotted_name(call.func)
        if (dotted in self._BLOCKING_EXACT
                or dotted.startswith(self._BLOCKING_PREFIXES)):
            return context.finding(
                self, call, f"{dotted}() blocks the event loop — use "
                "the asyncio equivalent or asyncio.to_thread")
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            return context.finding(
                self, call, "open() blocks the event loop — wrap the "
                "file work in asyncio.to_thread")
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in self._BLOCKING_METHODS:
                return context.finding(
                    self, call, f".{method}() is file I/O on the event "
                    "loop — wrap it in asyncio.to_thread")
            if (method in self._SESSION_METHODS
                    and self._names_session(call.func.value)):
                return context.finding(
                    self, call, f".{method}() runs counting/store work "
                    "— dispatch it via asyncio.to_thread")
        return None

    @staticmethod
    def _names_session(node) -> bool:
        while isinstance(node, ast.Attribute):
            if node.attr in AsyncBlockingRule._SESSION_ROOTS:
                return True
            node = node.value
        return (isinstance(node, ast.Name)
                and node.id in AsyncBlockingRule._SESSION_ROOTS)


# ----------------------------------------------------------------------
# status / registry discipline
# ----------------------------------------------------------------------
class StatusLiteralRule(Rule):
    id = "status-literal"
    severity = Severity.WARNING
    description = ("raw \"ok\"/\"timeout\"/... literals in status "
                   "positions bypass repro.status.Status (typo-prone, "
                   "unrefactorable); use the enum members")
    exclude = ("repro/status.py",)

    @staticmethod
    def _statusish(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "status"
        if isinstance(node, ast.Attribute):
            return node.attr == "status"
        if isinstance(node, ast.Subscript):
            return (isinstance(node.slice, ast.Constant)
                    and node.slice.value == "status")
        if isinstance(node, ast.Call):
            return (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "status")
        return False

    @staticmethod
    def _status_constants(node):
        for child in ast.walk(node):
            if (isinstance(child, ast.Constant)
                    and child.value in _STATUS_VALUES):
                yield child

    def check(self, context: FileContext):
        for node in ast.walk(context.tree):
            yield from self._check_node(context, node)

    def _check_node(self, context: FileContext, node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(self._statusish(side) for side in sides):
                for side in sides:
                    if self._statusish(side):
                        continue
                    for constant in self._status_constants(side):
                        yield self._finding(context, constant)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant)
                        and key.value == "status"):
                    for constant in self._status_constants(value):
                        yield self._finding(context, constant)
        elif isinstance(node, ast.Assign):
            if any(self._statusish(target) for target in node.targets):
                for constant in self._status_constants(node.value):
                    yield self._finding(context, constant)
        elif isinstance(node, ast.Call):
            # .get("status", "error") defaults and status= keywords
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get"
                    and len(node.args) >= 2
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "status"):
                for constant in self._status_constants(node.args[1]):
                    yield self._finding(context, constant)
            for keyword in node.keywords:
                if (keyword.arg == "status"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value in _STATUS_VALUES):
                    yield self._finding(context, keyword.value)

    def _finding(self, context: FileContext, constant):
        name = str(constant.value).upper()
        return context.finding(
            self, constant,
            f'raw status literal "{constant.value}" — use '
            f"Status.{name} (str-valued: wire/cache bytes unchanged)")


class RegistryDisciplineRule(Rule):
    id = "registry-discipline"
    severity = Severity.WARNING
    description = ("counter entry points (pact_count, cdm_count, ...) "
                   "resolve only through repro.api.registry — direct "
                   "imports bypass sessions, caching and deadlines")

    def check(self, context: FileContext):
        if any(context.module.startswith(prefix)
               for prefix in _REGISTRY_ALLOWED):
            return
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in _COUNTER_MODULES):
                for alias in node.names:
                    if alias.name in _COUNTER_ENTRY_POINTS:
                        yield context.finding(
                            self, node,
                            f"import of {alias.name} from "
                            f"{node.module} bypasses the counter "
                            "registry — resolve through "
                            "repro.api.registry / Session")


# ----------------------------------------------------------------------
def default_rules() -> list[Rule]:
    """The full catalogue, in reporting order."""
    return [
        BuiltinHashRule(), UnseededRandomRule(), WallclockRule(),
        JsonKeysRule(), SetIterRule(), PickleFanoutRule(),
        LockDisciplineRule(), AsyncBlockingRule(), StatusLiteralRule(),
        RegistryDisciplineRule(),
    ]


def rules_by_id() -> dict[str, Rule]:
    return {rule.id: rule for rule in default_rules()}
