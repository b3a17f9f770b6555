"""End-to-end counter tests: pact (all families), CDM, enum.

Ground truths come from the enum counter or closed forms; pact estimates
must fall within the theoretical (1+epsilon) band (with margin to spare —
the paper observes average error ~0.03, far below 0.8).
"""

import pytest

from repro import cdm_count, count_projected, exact_count
from repro.errors import CounterError
from repro.smt import (
    And, Equals, Implies, Or, bool_var, bv_add, bv_and, bv_mul,
    bv_ult, bv_val, bv_var, real_lt, real_val, real_var,
)
from repro.utils.stats import relative_error

EPSILON = 0.8


def within_tolerance(exact, estimate, epsilon=EPSILON):
    return relative_error(exact, estimate) <= epsilon


class TestEnum:
    def test_interval(self):
        x = bv_var("en_x", 8)
        result = exact_count([bv_ult(x, bv_val(77, 8))], [x])
        assert result.estimate == 77
        assert result.exact

    def test_projection_collapses_witnesses(self):
        x, y = bv_var("en_px", 4), bv_var("en_py", 4)
        # x = y & 0b1100: x ranges over {0,4,8,12}, many y witnesses each.
        result = exact_count(
            [Equals(x, bv_and(y, bv_val(0b1100, 4)))], [x])
        assert result.estimate == 4

    def test_unsat_formula(self):
        x = bv_var("en_ux", 4)
        result = exact_count([bv_ult(x, bv_val(0, 4))], [x])
        assert result.estimate == 0

    def test_limit(self):
        x = bv_var("en_lx", 8)
        result = exact_count([bv_ult(x, bv_val(200, 8))], [x], limit=50)
        assert result.status == "limit"
        assert result.estimate is None

    def test_limit_surfaces_partial_count_as_lower_bound(self):
        """The partial enumeration is not thrown away: the LIMIT result
        keeps its accounting and states the lower bound in detail."""
        x = bv_var("en_lbx", 8)
        result = exact_count([bv_ult(x, bv_val(200, 8))], [x], limit=50)
        # 51 models were enumerated before the cap tripped.
        assert "at least 51 projected solutions" in result.detail
        assert "lower bound" in result.detail
        assert result.solver_calls == 51
        assert result.time_seconds > 0
        assert not result.solved

    def test_limit_not_tripped_exactly_at_count(self):
        """limit == exact count must finish OK (the cap is strict)."""
        x = bv_var("en_lex", 8)
        result = exact_count([bv_ult(x, bv_val(50, 8))], [x], limit=50)
        assert result.status == "ok"
        assert result.estimate == 50


class TestPactSmallExact:
    """Line 3-4 of Algorithm 1: small spaces are counted exactly."""

    @pytest.mark.parametrize("family", ["xor", "prime", "shift"])
    def test_small_space_short_circuits(self, family):
        x = bv_var(f"px_{family}", 6)
        result = count_projected([bv_ult(x, bv_val(9, 6))], [x],
                                 family=family, seed=2)
        assert result.exact
        assert result.estimate == 9

    def test_unsat_gives_zero(self):
        x = bv_var("pz_x", 6)
        result = count_projected(
            [And(bv_ult(x, bv_val(3, 6)), bv_ult(bv_val(5, 6), x))], [x],
            family="xor", seed=2)
        assert result.estimate == 0
        assert result.exact


class TestPactAccuracy:
    CASES = [
        # (name, width, builder(x), exact count)
        ("interval", 8, lambda x: bv_ult(x, bv_val(200, 8)), 200),
        ("stripe", 8,
         lambda x: Equals(bv_and(x, bv_val(3, 8)), bv_val(1, 8)), 64),
        ("union", 8,
         lambda x: Or(bv_ult(x, bv_val(100, 8)),
                      bv_ult(bv_val(180, 8), x)), 175),
    ]

    @pytest.mark.parametrize("family", ["xor", "prime", "shift"])
    @pytest.mark.parametrize("name,width,builder,exact",
                             CASES, ids=[c[0] for c in CASES])
    def test_estimate_within_band(self, family, name, width, builder,
                                  exact):
        x = bv_var(f"pa_{family}_{name}", width)
        result = count_projected([builder(x)], [x], family=family,
                                 seed=7, iteration_override=7)
        assert result.solved
        assert within_tolerance(exact, result.estimate), (
            f"{family}/{name}: {result.estimate} vs {exact}")

    def test_multi_variable_projection(self):
        x, y = bv_var("pm_x", 4), bv_var("pm_y", 4)
        formula = bv_ult(bv_add(x, y), bv_val(8, 4))
        truth = exact_count([formula], [x, y]).estimate
        result = count_projected([formula], [x, y], family="xor",
                                 seed=3, iteration_override=7)
        assert within_tolerance(truth, result.estimate)

    def test_projection_with_witness_variables(self):
        x, y = bv_var("pw_x", 6), bv_var("pw_y", 6)
        formula = Equals(x, bv_mul(y, bv_val(2, 6)))  # x even
        result = count_projected([formula], [x], family="xor",
                                 seed=5, iteration_override=7)
        assert within_tolerance(32, result.estimate)

    def test_hybrid_bv_real_counting(self):
        """The headline capability: count BV projections of a hybrid
        formula with continuous witnesses."""
        x = bv_var("ph_x", 6)
        r = real_var("ph_r")
        # r strictly between 0 and 1 always possible; x < 40 required;
        # additionally x < 20 must imply r < 1/2 (always satisfiable).
        formula = [
            real_lt(real_val(0), r), real_lt(r, real_val(1)),
            bv_ult(x, bv_val(40, 6)),
            Implies(bv_ult(x, bv_val(20, 6)),
                    real_lt(r, real_val("1/2"))),
        ]
        truth = exact_count(formula, [x]).estimate
        assert truth == 40
        result = count_projected(formula, [x], family="xor", seed=4,
                                 iteration_override=7)
        assert within_tolerance(40, result.estimate)

    def test_median_stabilises_estimates(self):
        x = bv_var("ps_x", 8)
        formula = [bv_ult(x, bv_val(200, 8))]
        estimates = [
            count_projected(formula, [x], family="xor", seed=seed,
                            iteration_override=7).estimate
            for seed in range(5)
        ]
        for estimate in estimates:
            assert within_tolerance(200, estimate)


class TestPactApi:
    def test_single_term_accepted(self):
        x = bv_var("api_x", 5)
        result = count_projected(bv_ult(x, bv_val(5, 5)), [x])
        assert result.estimate == 5

    def test_empty_projection_rejected(self):
        x = bv_var("api_y", 5)
        with pytest.raises(CounterError):
            count_projected([bv_ult(x, bv_val(5, 5))], [])

    def test_non_bv_projection_rejected(self):
        r = real_var("api_r")
        x = bv_var("api_z", 5)
        with pytest.raises(CounterError):
            count_projected([bv_ult(x, bv_val(5, 5))], [r])

    def test_duplicate_projection_deduped(self):
        """A repeated projection variable must not double-count its bits
        (it would inflate total_bits and break pairwise independence)."""
        x = bv_var("api_dup", 8)
        formula = [bv_ult(x, bv_val(200, 8))]
        deduped = count_projected(formula, [x, x, x], family="xor",
                                  seed=7, iteration_override=3)
        clean = count_projected(formula, [x], family="xor", seed=7,
                                iteration_override=3)
        assert deduped.estimates == clean.estimates

    def test_duplicate_projection_multi_var_order_preserved(self):
        x, y = bv_var("api_d2x", 4), bv_var("api_d2y", 4)
        formula = bv_ult(bv_add(x, y), bv_val(8, 4))
        truth = exact_count([formula], [x, y]).estimate
        result = count_projected([formula], [x, y, x, y], family="xor",
                                 seed=3, iteration_override=7)
        clean = count_projected([formula], [x, y], family="xor",
                                seed=3, iteration_override=7)
        assert result.estimates == clean.estimates
        assert within_tolerance(truth, result.estimate)

    def test_timeout_reported(self):
        x, y = bv_var("api_tx", 14), bv_var("api_ty", 14)
        result = count_projected(
            [Equals(bv_mul(x, y), bv_val(9973, 14))], [x, y],
            family="prime", timeout=0.05)
        assert result.status == "timeout"
        assert result.estimate is None

    def test_timeout_reports_partial_iterations(self):
        """On timeout the result records the iterations that DID finish
        (count and per-iteration estimates stay consistent)."""
        x = bv_var("api_px", 10)
        formula = [bv_ult(x, bv_val(900, 10))]
        full = count_projected(formula, [x], family="xor", seed=3,
                               iteration_override=4)
        assert full.status == "ok"
        # A budget that fits roughly half the full run cuts the loop
        # mid-way: some iterations complete, the rest are abandoned.
        result = count_projected(formula, [x], family="xor", seed=3,
                                 iteration_override=4,
                                 timeout=full.time_seconds / 2)
        assert result.iterations == len(result.estimates)
        if result.status == "timeout":
            assert result.estimate is None
            assert result.iterations < 4
            assert result.estimates == full.estimates[:result.iterations]

    def test_solver_call_accounting(self):
        x = bv_var("api_cx", 8)
        result = count_projected([bv_ult(x, bv_val(150, 8))], [x],
                                 family="xor", iteration_override=3)
        assert result.solver_calls > 0
        assert result.sat_answers <= result.solver_calls


class TestCdm:
    def test_small_space_exact(self):
        x = bv_var("cdm_sx", 6)
        result = cdm_count([bv_ult(x, bv_val(3, 6))], [x],
                           iteration_override=2)
        assert result.exact
        assert result.estimate == 3

    def test_accuracy_on_interval(self):
        x = bv_var("cdm_ax", 7)
        result = cdm_count([bv_ult(x, bv_val(90, 7))], [x], seed=2,
                           iteration_override=3)
        assert result.solved
        assert within_tolerance(90, result.estimate)

    # a wall-clock comparison of two full counter runs — slow-job fare
    @pytest.mark.slow
    def test_cdm_slower_than_pact_xor(self):
        """The paper's central performance claim, at miniature scale."""
        x = bv_var("cdm_px", 7)
        formula = [bv_ult(x, bv_val(90, 7))]
        pact_result = count_projected(formula, [x], family="xor",
                                      seed=1, iteration_override=3)
        cdm_result = cdm_count(formula, [x], seed=1,
                               iteration_override=3)
        assert pact_result.time_seconds < cdm_result.time_seconds

    def test_timeout(self):
        x = bv_var("cdm_tx", 12)
        result = cdm_count(
            [Equals(bv_mul(x, x), bv_val(1024, 12))], [x], timeout=0.05)
        assert result.status == "timeout"


@pytest.mark.parametrize("counter", [count_projected, cdm_count])
def test_non_bv_projection_rejected_before_anything_is_built(counter,
                                                             monkeypatch):
    """Both hashing counters check the projection's sorts before they
    compile (CDM before it composes its copies), and the error names the
    variable as it was declared, not a composed copy of it."""
    def built(*args, **kwargs):
        raise AssertionError("built before the projection was checked")

    monkeypatch.setattr("repro.core.cdm.compose_copies", built)
    monkeypatch.setattr("repro.compile.memo.compile_problem", built)
    x, b = bv_var("sort_x", 4), bool_var("b")
    with pytest.raises(CounterError,
                       match="projection variable b is not") as raised:
        counter([Or(bv_ult(x, bv_val(5, 4)), b)], [x, b], seed=1)
    assert "b!c0" not in str(raised.value)
