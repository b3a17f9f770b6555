"""Harness tests: presets, runner, the three experiment modules."""

import pytest

from repro.benchgen.generators import qf_bvfp
from repro.harness.accuracy import accuracy_csv, accuracy_table, error_series
from repro.harness.cactus import cactus_csv, cactus_series, cactus_table
from repro.harness.presets import Preset
from repro.harness.report import ascii_plot, format_table, to_csv
from repro.harness.runner import RunRecord, run_configuration, run_matrix
from repro.harness.table1 import PAPER_TABLE1, solved_by_logic, table1_rows


class TestPresets:
    def test_paper_preset_is_faithful(self):
        preset = Preset.paper()
        assert preset.timeout == 3600.0
        assert preset.epsilon == 0.8
        assert preset.delta == 0.2
        assert preset.iteration_override is None
        assert preset.min_count == 500

    def test_scaled_presets_shrink(self):
        paper, laptop, smoke = (Preset.paper(), Preset.laptop(),
                                Preset.smoke())
        assert smoke.timeout < laptop.timeout < paper.timeout
        assert (smoke.instances_per_logic < laptop.instances_per_logic
                < paper.instances_per_logic)

    def test_by_name(self):
        assert Preset.by_name("smoke").name == "smoke"
        with pytest.raises(ValueError):
            Preset.by_name("cluster")


class TestRunner:
    def test_run_configuration_pact(self):
        instance = qf_bvfp(seed=1, width=9)
        record = run_configuration("pact_xor", instance, Preset.smoke())
        assert record.solved
        assert record.logic == "QF_BVFP"
        assert record.relative_error is not None
        assert record.relative_error <= 0.8

    def test_run_configuration_timeout_recorded(self):
        instance = qf_bvfp(seed=1, width=13)
        tight = Preset(name="tight", instances_per_logic=1,
                       timeout=0.01, iteration_override=1)
        record = run_configuration("cdm", instance, tight)
        assert not record.solved
        assert record.status in ("timeout", "error")

    def test_unknown_family_reported_as_error(self):
        instance = qf_bvfp(seed=1, width=9)
        record = run_configuration("pact_md5", instance, Preset.smoke())
        assert not record.solved
        assert record.status == "error"

    def test_unknown_configuration_reported_as_error(self):
        """Dispatch goes through the repro.api registry: any unresolvable
        configuration becomes an error record, not a crash."""
        instance = qf_bvfp(seed=1, width=9)
        record = run_configuration("minisat", instance, Preset.smoke())
        assert not record.solved
        assert record.status == "error"

    def test_run_matrix_shape(self):
        instance = qf_bvfp(seed=2, width=9)
        records = run_matrix([instance], Preset.smoke(),
                             configurations=("pact_xor", "pact_shift"))
        assert len(records) == 2
        assert {r.configuration for r in records} == {"pact_xor",
                                                      "pact_shift"}

    def test_relative_error_with_zero_known_count(self):
        """A known count of 0 is legitimate ground truth, not missing."""
        exact_zero = _record("pact_xor", "QF_ABV", True, estimate=0,
                             known=0)
        assert exact_zero.relative_error == 0.0
        overestimate = _record("pact_xor", "QF_ABV", True, estimate=5,
                               known=0)
        assert overestimate.relative_error == float("inf")

    def test_relative_error_none_when_unknown_or_unsolved(self):
        assert _record("pact_xor", "QF_ABV", True,
                       known=None).relative_error is None
        assert _record("pact_xor", "QF_ABV", False).relative_error is None


def _record(configuration, logic, solved, time_seconds=1.0,
            estimate=100, known=100):
    return RunRecord(configuration=configuration, instance=f"i_{logic}",
                     logic=logic, solved=solved, estimate=estimate,
                     known_count=known, time_seconds=time_seconds,
                     solver_calls=10, status="ok" if solved else "timeout")


class TestTable1Formatting:
    def test_solved_by_logic(self):
        records = [
            _record("pact_xor", "QF_ABV", True),
            _record("pact_xor", "QF_ABV", True),
            _record("cdm", "QF_ABV", False),
        ]
        counts = solved_by_logic(records)
        assert counts["QF_ABV"]["pact_xor"] == 2
        assert counts["QF_ABV"]["cdm"] == 0

    def test_rows_include_totals(self):
        records = [_record("pact_xor", "QF_ABV", True),
                   _record("pact_prime", "QF_BVFP", True)]
        rows = table1_rows(records)
        assert rows[-1][0] == "Total"
        assert rows[-1][4] == 1  # pact_xor total

    def test_paper_reference_shape(self):
        """The hard-coded paper numbers satisfy the claims we test."""
        for logic, row in PAPER_TABLE1.items():
            assert row["pact_xor"] >= max(row["pact_prime"],
                                          row["pact_shift"]), logic
        totals = {c: sum(row[c] for row in PAPER_TABLE1.values())
                  for c in ("cdm", "pact_prime", "pact_shift",
                            "pact_xor")}
        assert totals == {"cdm": 83, "pact_prime": 33,
                          "pact_shift": 40, "pact_xor": 456}


class TestCactus:
    def test_series_sorted_cumulative(self):
        records = [_record("pact_xor", "QF_ABV", True, 3.0),
                   _record("pact_xor", "QF_ABV", True, 1.0),
                   _record("pact_xor", "QF_ABV", False, 9.0)]
        series = cactus_series(records)
        assert series["pact_xor"] == [(1, 1.0), (2, 3.0)]

    def test_csv_and_table(self):
        records = [_record("pact_xor", "QF_ABV", True, 2.0)]
        assert "pact_xor" in cactus_table(records)
        csv_text = cactus_csv(records)
        assert "configuration,instances_solved,time_seconds" in csv_text


class TestAccuracy:
    def test_error_series_indexes_instances(self):
        records = [
            _record("pact_xor", "QF_ABV", True, estimate=110, known=100),
            _record("pact_prime", "QF_ABV", True, estimate=120,
                    known=100),
        ]
        series = error_series(records)
        assert series["pact_xor"][0][1] == pytest.approx(0.1)
        assert series["pact_prime"][0][1] == pytest.approx(0.2)

    def test_table_flags_bound_violation(self):
        records = [_record("pact_xor", "QF_ABV", True, estimate=300,
                           known=100)]
        table = accuracy_table(records, epsilon=0.8)
        assert "NO" in table

    def test_csv(self):
        records = [_record("pact_xor", "QF_ABV", True)]
        assert "relative_error" in accuracy_csv(records)


class TestExactGroundTruth:
    def test_sets_and_cross_checks_counts(self):
        from repro.harness.accuracy import exact_ground_truth
        instance = qf_bvfp(3, width=7)
        analytic = instance.known_count
        exact_ground_truth([instance])
        assert instance.known_count == analytic  # verified, unchanged

    def test_disagreement_raises(self):
        from repro.errors import CounterError
        from repro.harness.accuracy import exact_ground_truth
        instance = qf_bvfp(3, width=7)
        instance.known_count = (instance.known_count or 0) + 1
        with pytest.raises(CounterError, match="disagreement"):
            exact_ground_truth([instance])

    def test_counter_refusal_keeps_analytic_count(self):
        """An instance the exact engine cannot take (here: more open LRA
        atoms than the closure cap) keeps its analytic ground truth
        instead of killing the experiment."""
        from repro.api import CountRequest, Problem, Session
        from repro.benchgen.spec import Instance
        from repro.count_exact import MAX_CLOSURE_ATOMS
        from repro.harness.accuracy import exact_ground_truth
        from repro.smt import Equals, Implies, bv_extract, bv_ult, \
            bv_val, bv_var, real_lt, real_val, real_var
        from repro.status import Status
        atoms = MAX_CLOSURE_ATOMS + 1
        x = bv_var("gt_cap", 4)
        y = bv_var("gt_cap_y", atoms)
        r = real_var("gt_cap_r")
        # Each atom sits behind its own projection bit, so none is a
        # root unit and all of them are open: one past the cap.
        assertions = [bv_ult(x, bv_val(9, 4))]
        assertions += [Implies(Equals(bv_extract(y, i, i), bv_val(1, 1)),
                               real_lt(real_val(i), r))
                       for i in range(atoms)]
        known = 9 << atoms  # r above every bound satisfies each atom
        instance = Instance(name="gt_cap", logic="QF_BVFPLRA",
                            cluster="cap", assertions=assertions,
                            projection=[x, y], known_count=known)
        with Session() as session:
            response = session.count(Problem.from_instance(instance),
                                     CountRequest(counter="exact:cc"))
        assert response.status is Status.ERROR
        assert (f"at most {MAX_CLOSURE_ATOMS} open LRA atoms "
                f"(got {atoms})") in response.detail
        exact_ground_truth([instance])
        assert instance.known_count == known

    def test_root_unit_atoms_past_the_cap_count_exactly(self):
        """Atoms that are root units are held, not enumerated, so more
        of them than the cap still count exactly."""
        from repro.benchgen.spec import Instance
        from repro.count_exact import MAX_CLOSURE_ATOMS
        from repro.harness.accuracy import exact_ground_truth
        from repro.smt import bv_ult, bv_val, bv_var, real_lt, real_val, \
            real_var
        x = bv_var("gt_units", 4)
        r = real_var("gt_units_r")
        assertions = [bv_ult(x, bv_val(9, 4))]
        assertions += [real_lt(real_val(i), r)
                       for i in range(MAX_CLOSURE_ATOMS + 1)]
        instance = Instance(name="gt_units", logic="QF_BVFPLRA",
                            cluster="cap", assertions=assertions,
                            projection=[x], known_count=None)
        exact_ground_truth([instance])
        assert instance.known_count == 9


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]

    def test_to_csv(self):
        assert to_csv(["x"], [[1], [2]]).splitlines() == ["x", "1", "2"]

    def test_ascii_plot_renders(self):
        plot = ascii_plot({"s": [(0.0, 0.0), (1.0, 1.0)]})
        assert "x" in plot
        assert "s" in plot

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"
