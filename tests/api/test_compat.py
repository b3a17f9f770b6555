"""The compatibility seam: pre-API entry points are unchanged.

``count_projected``, ``pact_count``, ``cdm_count`` and ``exact_count``
remain importable from ``repro`` with unchanged signatures and
bit-identical results; the quickstart snippet that shipped in
``repro/__init__.py``'s docstring before the API layer existed runs
verbatim.
"""

import inspect

from repro import (
    CountRequest, Problem, Session, cdm_count, count_projected,
    exact_count, pact_count,
)
from repro.core import PactConfig
from repro.smt import bv_ult, bv_val, bv_var

# The quickstart from repro/__init__.py's docstring as it shipped before
# repro.api existed (PR 1) — run verbatim.
OLD_QUICKSTART = '''
from repro import count_projected
from repro.smt import bv_var, bv_val, bv_ult

x = bv_var("x", 8)
result = count_projected([bv_ult(x, bv_val(100, 8))], [x],
                         epsilon=0.8, delta=0.2, family="xor")
print(result.estimate)
'''


def test_old_quickstart_runs_verbatim(capsys):
    namespace = {}
    exec(compile(OLD_QUICKSTART, "<old-quickstart>", "exec"), namespace)
    result = namespace["result"]
    assert result.solved
    printed = capsys.readouterr().out.strip()
    assert printed == str(result.estimate)


def test_legacy_signatures_unchanged():
    signature = inspect.signature(count_projected)
    # The legacy parameters stay first and in order, so every
    # pre-existing call works.
    assert list(signature.parameters) == [
        "assertions", "projection", "epsilon", "delta", "family", "seed",
        "timeout", "iteration_override", "pool"]
    assert signature.parameters["epsilon"].default == 0.8
    assert signature.parameters["family"].default == "xor"
    for fn, first_params in (
            (pact_count, ["assertions", "projection", "config"]),
            (cdm_count, ["assertions", "projection", "epsilon"]),
            (exact_count, ["assertions", "projection", "timeout"])):
        parameters = list(inspect.signature(fn).parameters)
        assert parameters[:len(first_params)] == first_params


def _formula(name):
    x = bv_var(name, 8)
    return [bv_ult(x, bv_val(200, 8))], [x]


def test_count_projected_bit_identical_to_session():
    assertions, projection = _formula("cp_x")
    legacy = count_projected(assertions, projection, seed=7,
                             iteration_override=3)
    response = Session().count(
        Problem.from_terms(assertions, projection),
        CountRequest(counter="pact:xor", seed=7, iteration_override=3))
    assert legacy.estimate == response.estimate
    assert legacy.estimates == response.estimates
    assert legacy.solver_calls == response.solver_calls


def test_pact_count_bit_identical_to_session():
    assertions, projection = _formula("pc_x")
    config = PactConfig(family="shift", seed=3, iteration_override=2)
    legacy = pact_count(assertions, projection, config)
    response = Session().count(
        Problem.from_terms(assertions, projection),
        CountRequest(counter="pact:shift", seed=3, iteration_override=2))
    assert legacy.estimates == response.estimates


def test_cdm_count_bit_identical_to_session():
    x = bv_var("cc_x", 6)
    assertions, projection = [bv_ult(x, bv_val(40, 6))], [x]
    legacy = cdm_count(assertions, projection, seed=5,
                       iteration_override=2)
    response = Session().count(
        Problem.from_terms(assertions, projection),
        CountRequest(counter="cdm", seed=5, iteration_override=2))
    assert legacy.estimate == response.estimate
    assert legacy.estimates == response.estimates


def test_exact_count_bit_identical_to_session():
    assertions, projection = _formula("ec_x")
    legacy = exact_count(assertions, projection)
    response = Session().count(
        Problem.from_terms(assertions, projection),
        CountRequest(counter="enum"))
    assert legacy.estimate == response.estimate == 200
    assert response.exact


def test_legacy_status_strings_still_compare():
    assertions, projection = _formula("st_x")
    result = exact_count(assertions, projection)
    assert result.status == "ok"
    assert str(result.status) == "ok"
