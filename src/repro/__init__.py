"""repro: a reproduction of "Approximate SMT Counting Beyond Discrete
Domains" (Shaw & Meel, DAC 2025).

The package provides **pact**, an (epsilon, delta)-approximate projected
model counter for hybrid SMT formulas, plus the entire substrate it needs
(CDCL SAT solver with native XOR reasoning, bit-blasting SMT solver over
QF_ABVFPLRA, SMT-LIB front end), the CDM baseline, an exact enumeration
counter, benchmark generators for the paper's six logics, the harness
that regenerates every table and figure, :mod:`repro.engine` — the
parallel execution subsystem (worker pools, iteration fan-out) — and
:mod:`repro.api`, the unified counting API every entry point goes
through, with its fingerprint result cache.  See DESIGN.md for
the map.

Typical use::

    from repro import CountRequest, Problem, Session
    from repro.smt import bv_var, bv_val, bv_ult

    x = bv_var("x", 8)
    problem = Problem.from_terms([bv_ult(x, bv_val(100, 8))], [x])
    with Session() as session:
        response = session.count(
            problem, CountRequest(counter="pact:xor", epsilon=0.8,
                                  delta=0.2))
        print(response.estimate)

        # Race counters; the first (in order) that solves wins.
        outcome = session.portfolio(
            problem, ["pact:xor", "pact:prime", "cdm"])
        print(outcome.winner, outcome.response.estimate)

    # The pre-API entry points still work, bit-identically:
    from repro import count_projected
    assert (count_projected([bv_ult(x, bv_val(100, 8))], [x]).estimate
            == response.estimate)
"""

from repro.api import (
    Counter, CountRequest, CountResponse, PortfolioResult, Problem,
    ProgressEvent, Session, available_counters, resolve,
)
from repro.core import (
    CountResult, PactConfig, cdm_count, count_projected, exact_count,
    pact_count,
)
from repro.errors import (
    CounterError, ParseError, ReproError, SolverTimeoutError,
    UnsupportedFeatureError,
)
from repro.status import Status

__version__ = "1.1.0"

__all__ = [
    "Counter", "CountRequest", "CountResponse", "CountResult",
    "CounterError", "PactConfig", "ParseError", "PortfolioResult",
    "Problem", "ProgressEvent", "ReproError", "Session",
    "SolverTimeoutError", "Status", "UnsupportedFeatureError",
    "available_counters", "cdm_count", "count_projected", "exact_count",
    "pact_count", "resolve",
]
