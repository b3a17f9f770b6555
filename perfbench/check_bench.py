"""Checks of the benchmark itself (not collected by the repository's
test suite; run them explicitly from the repository root):

    python3 -m pytest -q perfbench/check_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from run import NOT_MEASURED  # noqa: E402
from workloads import LOGICS, MIN_KNOWN, WORKLOADS, generate, record_of  # noqa: E402


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def test_exact_answer_off_by_one_fails():
    assert oracle.check(1000, 1000, "ok", exact=True)
    assert not oracle.check(1000, 999, "ok", exact=True)
    assert not oracle.check(1000, 1001, "ok", exact=True)


def test_approximate_answer_must_lie_in_the_pac_band():
    eps = oracle.EPSILON
    known = 1000
    assert oracle.check(known, known, "ok", exact=False)
    assert oracle.check(known, int(known * (1 + eps)), "ok", exact=False)
    assert not oracle.check(known, int(known * (1 + eps)) + 1, "ok",
                            exact=False)
    assert not oracle.check(known, 555, "ok", exact=False)  # 1000/1.8=555.6
    assert oracle.check(known, 556, "ok", exact=False)


@pytest.mark.parametrize("status", ["timeout", "error", "http:429",
                                    "http:500", "transport:TimeoutError"])
def test_any_status_but_ok_fails(status):
    assert not oracle.check(1000, 1000, status, exact=True)


def test_failures_count_against_attempted_operations():
    case = generate(1, 10, 1)[0]
    good = record_of(0, case, 0.1, status="ok", estimate=case.known,
                     exact=True)
    off = record_of(1, case, 0.1, status="ok", estimate=case.known + 1,
                    exact=True)
    refused = record_of(2, case, 0.1, status="http:429")
    for record in (good, off, refused):
        record["segment"] = 0
    values, notes = metrics.end_to_end([good, off, refused], {0: 1.0},
                                       {0: 1.0}, 0.1, 1.0)
    assert notes["fail_frac"] == pytest.approx(2 / 3)
    assert values["ops_per_s"] == 1.0  # only the correct answer counts


def test_timings_are_scaled_per_segment():
    case = generate(1, 10, 1)[0]
    records = [record_of(index, case, 0.5, status="ok", estimate=case.known,
                         exact=True) for index in range(3)]
    for record, segment in zip(records, (0, 0, 1)):
        record["segment"] = segment
    values, notes = metrics.end_to_end(records, {0: 1.0, 1: 0.5},
                                       {0: 1.0, 1: 2.0}, 0.1, 1.0)
    assert values["ops_per_s"] == 1.5  # 3 answers over 1.0 + 0.5 * 2.0 s
    assert values["latency_p50_s"] == 0.5 and values["latency_tail_s"] == 1.0
    assert notes["measured"]["ops_per_s"] == 2.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_a_second_seed_yields_the_same_mix():
    first, second = generate(11, 12, 2), generate(9173, 12, 2)
    assert [case.logic for case in first] == [case.logic for case in second]
    assert [case.logic for case in first[:len(LOGICS)]] == list(LOGICS)
    assert all(case.known >= MIN_KNOWN for case in first + second)
    assert {case.text for case in first}.isdisjoint(
        case.text for case in second)
    assert generate(11, 12, 2) == first  # same seed, same inputs


def test_renamed_copies_are_distinct_problems_with_the_same_count():
    from repro.api import Problem, Session
    case = generate(3, 10, 1)[0]
    copy = case.renamed("v1")
    assert copy.known == case.known and copy.text != case.text
    original = Problem.from_script(case.text, name=case.name)
    renamed = Problem.from_script(copy.text, name=copy.name)
    assert original.compile_key != renamed.compile_key
    session = Session()
    assert (session.count(renamed, counter="exact:cc").estimate
            == case.known)


# ----------------------------------------------------------------------
# metrics and spans
# ----------------------------------------------------------------------
def test_tail_has_ten_samples_beyond_it():
    value, note = metrics.tail([float(i) for i in range(100)])
    assert value == 89.0 and "10 beyond" in note
    value, _note = metrics.tail([3.0, 1.0, 2.0])
    assert value == 3.0


class _Walker:
    def walk(self, depth):
        return self.walk(depth - 1) if depth else 0


def test_spans_record_outermost_calls_and_self_time():
    recorder = spans.Recorder()
    walker = _Walker()
    original = _Walker.walk
    _Walker.walk = recorder.wrap("walk", original)  # recursion is traced
    try:
        outer = recorder.wrap("outer", lambda: walker.walk(3))
        recorder.set_op(7)
        outer()
    finally:
        _Walker.walk = original
    assert [(op, layer, parent) for op, layer, parent, *_ in recorder.spans] \
        == [(7, "walk", "outer"), (7, "outer", None)]
    totals = spans.layer_totals(recorder.spans)
    assert totals["self"]["outer"] == pytest.approx(
        totals["inclusive"]["outer"] - totals["inclusive"]["walk"])


def test_compile_units_is_the_units_stage_only():
    spans_list = [
        (0, "compile.units", "compile.equiv", 0.0, 1.0, 0.0),
        (0, "compile.equiv", "compile.total", 0.0, 3.0, 1.0),
        (0, "compile.units", "compile.total", 3.0, 5.0, 0.0),
        (0, "compile.total", None, 0.0, 6.0, 5.0),
    ]
    values = metrics.per_layer(
        spans_totals=spans.layer_totals(spans_list), counts={}, ops=1,
        records=[], kernel={}, pool={}, serve={}, trace={})
    assert values["compile.units_s"] == 2.0
    assert values["compile.equiv_s"] == 3.0
    assert values["compile.total_s"] == 6.0


def test_install_patches_where_callers_look_and_uninstall_restores():
    import repro.core.pact as pact
    from repro.smt.solver import SmtSolver
    original_cells = pact.saturating_count
    original_check = SmtSolver.__dict__["check"]
    recorder = spans.Recorder().install()
    try:
        assert pact.saturating_count is not original_cells
        assert pact.saturating_count.__wrapped__ is original_cells
    finally:
        recorder.uninstall()
    assert pact.saturating_count is original_cells
    assert SmtSolver.__dict__["check"] is original_check


# ----------------------------------------------------------------------
# the declared benchmark
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert set(NOT_MEASURED) == set(WORKLOADS)
    for notes in NOT_MEASURED.values():
        assert set(notes) <= set(metrics.PER_LAYER)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_two_seeds_print_the_same_metric_names(tmp_path, trace):
    names = []
    for seed in ("5", "8123"):
        done = _run(ROOT, "--workload", "pact-xor-j2", "--seed", seed,
                    "--seconds", "1", "--trace", trace,
                    "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        names.append(sorted(result["metrics"]))
    assert names[0] == names[1]
    expected = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert names[0] == sorted(expected)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "pact-xor-j2", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
