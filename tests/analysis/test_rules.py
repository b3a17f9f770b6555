"""Per-rule fixture pairs: each rule gets a violating snippet (exact
rule id and line asserted) and a clean twin that must not trip it.

Snippets are analyzed under *virtual paths* so module-scoped rules see
the module they police without touching the real tree.
"""

import textwrap

import pytest

from repro.analysis import Analyzer
from repro.analysis.engine import module_of

DET_PATH = "src/repro/api/problem.py"        # determinism-scoped
SERVE_PATH = "src/repro/serve/server.py"     # event-loop-scoped
ANY_PATH = "src/repro/harness/runner.py"     # unscoped repro module


def lint(source: str, path: str, rule: str | None = None):
    findings = Analyzer().analyze_source(textwrap.dedent(source), path)
    if rule is not None:
        findings = [finding for finding in findings
                    if finding.rule == rule]
    return findings


def test_module_of_normalises_real_absolute_and_virtual_paths():
    for path in ("src/repro/engine/pool.py",
                 "/srv/checkout/src/repro/engine/pool.py",
                 "repro/engine/pool.py"):
        assert module_of(path) == "repro/engine/pool.py"
    assert module_of("scripts/tool.py") == ""


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_det_builtin_hash_violating_and_clean():
    findings = lint("""\
        def fingerprint(pieces):
            return hash(tuple(pieces))
        """, DET_PATH, "det-builtin-hash")
    assert [(f.rule, f.line) for f in findings] == \
        [("det-builtin-hash", 2)]

    assert lint("""\
        import hashlib

        def fingerprint(pieces):
            return hashlib.sha256("\\n".join(pieces).encode()).hexdigest()
        """, DET_PATH, "det-builtin-hash") == []


def test_det_builtin_hash_out_of_scope_path_is_ignored():
    assert lint("value = hash('x')\n", ANY_PATH,
                "det-builtin-hash") == []


def test_det_unseeded_random_violating_and_clean():
    findings = lint("""\
        import random
        jitter = random.random()
        rng = random.Random()
        """, DET_PATH, "det-unseeded-random")
    assert [(f.rule, f.line) for f in findings] == \
        [("det-unseeded-random", 2), ("det-unseeded-random", 3)]

    assert lint("""\
        import random
        rng = random.Random(12345)
        draw = rng.random()
        """, DET_PATH, "det-unseeded-random") == []


def test_det_wallclock_violating_and_clean():
    findings = lint("""\
        import time
        stamp = time.time()
        """, DET_PATH, "det-wallclock")
    assert [(f.rule, f.line) for f in findings] == \
        [("det-wallclock", 2)]

    assert lint("""\
        import time
        start = time.monotonic()
        """, DET_PATH, "det-wallclock") == []


def test_det_json_keys_violating_and_clean():
    findings = lint("""\
        import json
        blob = json.dumps({"b": 1, "a": 2})
        """, DET_PATH, "det-json-keys")
    assert [(f.rule, f.line) for f in findings] == \
        [("det-json-keys", 2)]

    assert lint("""\
        import json
        blob = json.dumps({"b": 1, "a": 2}, sort_keys=True)
        """, DET_PATH, "det-json-keys") == []


def test_det_set_iter_violating_and_clean():
    findings = lint("""\
        def occurrences(clause):
            for lit in set(clause):
                yield abs(lit)
            frozen = tuple({1, 2, 3})
            return frozen
        """, "src/repro/count_exact/counter.py", "det-set-iter")
    assert [(f.rule, f.line) for f in findings] == \
        [("det-set-iter", 2), ("det-set-iter", 4)]

    assert lint("""\
        def occurrences(clause):
            for lit in sorted(set(clause)):
                yield abs(lit)
            return tuple(sorted({1, 2, 3}))
        """, "src/repro/count_exact/counter.py", "det-set-iter") == []


def test_det_set_iter_comprehension_is_flagged():
    findings = lint(
        "names = [item for item in {'b', 'a'}]\n",
        DET_PATH, "det-set-iter")
    assert [(f.rule, f.line) for f in findings] == [("det-set-iter", 1)]


# ----------------------------------------------------------------------
# pickle safety
# ----------------------------------------------------------------------
def test_pickle_fanout_lock_field_violating():
    findings = lint("""\
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class PactMethod:
            index: int = 0
            lock: object = field(default_factory=threading.Lock)
        """, "src/repro/core/pact.py", "pickle-fanout")
    assert [(f.rule, f.line) for f in findings] == \
        [("pickle-fanout", 7)]


def test_pickle_fanout_handle_in_init_violating():
    findings = lint("""\
        class CdmMethod:
            def __init__(self, path):
                self.handle = open(path)
        """, "src/repro/core/cdm.py", "pickle-fanout")
    assert [(f.rule, f.line) for f in findings] == \
        [("pickle-fanout", 3)]


def test_pickle_fanout_clean_and_getstate_exempt():
    assert lint("""\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class PactMethod:
            config: PactConfig
            prefix = "pact."
        """, "src/repro/core/pact.py", "pickle-fanout") == []

    # a class that controls its own pickled form may hold a lock ...
    assert lint("""\
        import threading

        class ComponentSpec:
            def __init__(self):
                self.lock = threading.Lock()

            def __getstate__(self):
                return {}
        """, "src/repro/count_exact/parallel.py", "pickle-fanout") == []
    # ... which the same class without __getstate__ may not
    findings = lint("""\
        import threading

        class ComponentSpec:
            def __init__(self):
                self.lock = threading.Lock()
        """, "src/repro/count_exact/parallel.py", "pickle-fanout")
    assert [(f.rule, f.line) for f in findings] == [("pickle-fanout", 5)]


def test_pickle_fanout_ignores_unpoliced_classes():
    assert lint("""\
        import threading

        class Helper:
            def __init__(self):
                self.lock = threading.Lock()
        """, ANY_PATH, "pickle-fanout") == []


# ----------------------------------------------------------------------
# lock discipline
# ----------------------------------------------------------------------
def test_lock_discipline_unlocked_write_violating():
    findings = lint("""\
        class CallCounter:
            def __init__(self):
                self.solver_calls = 0

            def record(self, is_sat):
                self.solver_calls += 1
        """, "src/repro/core/cells.py", "lock-discipline")
    assert [(f.rule, f.line) for f in findings] == \
        [("lock-discipline", 6)]


def test_lock_discipline_locked_write_clean():
    assert lint("""\
        import threading

        class CallCounter:
            def __init__(self):
                self._lock = threading.Lock()
                self.solver_calls = 0

            def record(self, is_sat):
                with self._lock:
                    self.solver_calls += 1
                    if is_sat:
                        self.sat_answers += 1
        """, "src/repro/core/cells.py", "lock-discipline") == []


def test_lock_discipline_sees_through_control_flow():
    findings = lint("""\
        class MetricsRegistry:
            def bump(self, flag):
                if flag:
                    for _ in range(3):
                        self.total += 1
        """, "src/repro/serve/metrics.py", "lock-discipline")
    assert [(f.rule, f.line) for f in findings] == \
        [("lock-discipline", 5)]


def test_lock_discipline_ignores_unpoliced_classes():
    assert lint("""\
        class Tally:
            def bump(self):
                self.total += 1
        """, ANY_PATH, "lock-discipline") == []


def test_lock_discipline_polices_component_store():
    """The component counters live on the one store class now."""
    findings = lint("""\
        class SqliteStore:
            def flush_components(self, entries, projection):
                self.flushed += len(entries)
        """, "src/repro/serve/store.py", "lock-discipline")
    assert [(f.rule, f.line) for f in findings] == \
        [("lock-discipline", 3)]


def test_pickle_fanout_polices_component_spec():
    findings = lint("""\
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class ComponentSpec:
            lock: object = field(default_factory=threading.Lock)
        """, "src/repro/count_exact/parallel.py", "pickle-fanout")
    assert [(f.rule, f.line) for f in findings] == \
        [("pickle-fanout", 6)]


# ----------------------------------------------------------------------
# event-loop hygiene
# ----------------------------------------------------------------------
def test_async_blocking_sleep_violating_and_clean():
    findings = lint("""\
        import time

        async def handler(request):
            time.sleep(0.1)
            return b"ok"
        """, SERVE_PATH, "async-blocking")
    assert [(f.rule, f.line) for f in findings] == \
        [("async-blocking", 4)]

    # a function *reference* handed to to_thread runs off-loop
    assert lint("""\
        import asyncio
        import time

        async def handler(request):
            await asyncio.to_thread(time.sleep, 0.1)
            await asyncio.sleep(0.1)
            return b"ok"
        """, SERVE_PATH, "async-blocking") == []


def test_async_blocking_session_call_violating_and_clean():
    findings = lint("""\
        async def handler(self, problem, request):
            return self.session.count(problem, request)
        """, SERVE_PATH, "async-blocking")
    assert [(f.rule, f.line) for f in findings] == \
        [("async-blocking", 2)]

    assert lint("""\
        import asyncio

        async def handler(self, problem, request):
            return await asyncio.to_thread(
                self.session.count, problem, request)
        """, SERVE_PATH, "async-blocking") == []


def test_async_blocking_ignores_sync_functions_and_other_modules():
    source = """\
        import time

        def worker():
            time.sleep(0.1)
        """
    assert lint(source, SERVE_PATH, "async-blocking") == []
    assert lint("""\
        import time

        async def probe():
            time.sleep(0.1)
        """, ANY_PATH, "async-blocking") == []


def test_async_blocking_skips_nested_sync_defs():
    # the nested def's body runs wherever it is *called* (a worker
    # thread, via to_thread) — only the await expression is on-loop
    assert lint("""\
        import asyncio
        import time

        async def handler(request):
            def blocking_work():
                time.sleep(0.1)
                return 42
            return await asyncio.to_thread(blocking_work)
        """, SERVE_PATH, "async-blocking") == []


# ----------------------------------------------------------------------
# status / registry discipline
# ----------------------------------------------------------------------
def test_status_literal_compare_violating_and_clean():
    findings = lint("""\
        def solved(response):
            return response.status == "ok"
        """, ANY_PATH, "status-literal")
    assert [(f.rule, f.line) for f in findings] == \
        [("status-literal", 2)]

    assert lint("""\
        from repro.status import Status

        def solved(response):
            return response.status == Status.OK
        """, ANY_PATH, "status-literal") == []


def test_status_literal_dict_value_get_default_and_keyword():
    findings = lint("""\
        def payload(entry, make):
            document = {"status": "error"}
            status = entry.get("status", "timeout")
            return make(status=status), document
        """, ANY_PATH, "status-literal")
    assert [(f.rule, f.line) for f in findings] == \
        [("status-literal", 2), ("status-literal", 3)]


def test_status_literal_ignores_unrelated_strings():
    assert lint("""\
        def describe(entry):
            kind = entry.get("kind", "error-free")
            greeting = "ok" + " computer"
            return kind, greeting
        """, ANY_PATH, "status-literal") == []


def test_status_literal_excluded_in_status_module():
    assert lint("""\
        OK = "ok"
        status = "ok"
        """, "src/repro/status.py", "status-literal") == []


def test_registry_discipline_violating_and_clean():
    findings = lint("""\
        from repro.core.pact import pact_count
        """, ANY_PATH, "registry-discipline")
    assert [(f.rule, f.line) for f in findings] == \
        [("registry-discipline", 1)]

    # the registry/core layers themselves may import entry points
    assert lint("""\
        from repro.core.pact import pact_count
        """, "src/repro/api/registry.py", "registry-discipline") == []
    # importing non-entry-point names is fine anywhere
    assert lint("""\
        from repro.core.pact import iteration_estimate
        """, ANY_PATH, "registry-discipline") == []


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
def test_findings_are_sorted_and_deduped():
    findings = lint("""\
        import time
        a = time.time()
        b = hash(a)
        """, DET_PATH)
    assert [f.rule for f in findings] == \
        ["det-wallclock", "det-builtin-hash"]
    assert len(set(findings)) == len(findings)


def test_parse_error_becomes_finding(tmp_path):
    bad = tmp_path / "repro" / "broken.py"
    bad.parent.mkdir()
    bad.write_text("def broken(:\n")
    findings = Analyzer().analyze_paths([tmp_path])
    assert [f.rule for f in findings] == ["parse-error"]


def test_rule_selection_by_id():
    from repro.analysis.rules import rules_by_id
    catalogue = rules_by_id()
    assert set(catalogue) == {
        "det-builtin-hash", "det-unseeded-random", "det-wallclock",
        "det-json-keys", "det-set-iter", "pickle-fanout",
        "lock-discipline", "async-blocking", "status-literal",
        "registry-discipline"}
    only_hash = Analyzer([catalogue["det-builtin-hash"]])
    findings = only_hash.analyze_source(
        "import time\na = time.time()\nb = hash(a)\n", DET_PATH)
    assert [f.rule for f in findings] == ["det-builtin-hash"]


@pytest.mark.parametrize("rule_id", [
    "det-builtin-hash", "det-unseeded-random", "det-wallclock",
    "det-json-keys", "det-set-iter", "pickle-fanout",
    "lock-discipline", "async-blocking", "status-literal",
    "registry-discipline"])
def test_every_rule_has_description_and_severity(rule_id):
    from repro.analysis.rules import rules_by_id
    rule = rules_by_id()[rule_id]
    assert rule.description
    assert str(rule.severity) in ("error", "warning")
