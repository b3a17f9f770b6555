"""repro.api: the unified counting API.

One stable request/response surface over every counter and every
workload; the CLI and the harness are thin clients of it, and new fronts
(batch endpoints, async services) should be too.  Four pieces:

* :class:`Problem` (:mod:`repro.api.problem`) — the immutable problem
  object: assertions + projection, built from terms, SMT-LIB text or a
  file, owning the deterministic serialisation and the cache
  fingerprint;
* the counter registry (:mod:`repro.api.registry`) — a
  :class:`Counter` protocol with six pluggable implementations
  (``pact:xor``, ``pact:prime``, ``pact:shift``, ``cdm``, ``enum``,
  ``exact:cc``) behind one ``count(problem, request) -> CountResponse``
  interface;
* :class:`CountRequest` / :class:`CountResponse`
  (:mod:`repro.api.request`) — how to count and what came back, with the
  shared :class:`repro.status.Status` enum and structured
  :class:`ProgressEvent` notifications;
* :class:`Session` (:mod:`repro.api.session`) — the façade owning
  the ExecutionPool and result-store lifecycle, with ``count()``,
  ``count_batch()`` and ``portfolio()``.

Typical use::

    from repro.api import CountRequest, Problem, Session

    problem = Problem.from_file("instance.smt2")
    with Session(jobs=4, cache_dir=".pact-cache") as session:
        response = session.count(problem, CountRequest(counter="pact:xor"))
        print(response.estimate, response.status)
"""

from repro.api.problem import Problem, fingerprint_terms
from repro.api.registry import (
    Counter, available_counters, canonical_name, register, resolve,
)
from repro.api.request import CountRequest, CountResponse, ProgressEvent
from repro.api.session import DEFAULT_PORTFOLIO, PortfolioResult, Session
from repro.status import Status

__all__ = [
    "Counter", "CountRequest", "CountResponse", "DEFAULT_PORTFOLIO",
    "PortfolioResult", "Problem", "ProgressEvent", "Session", "Status",
    "available_counters", "canonical_name", "fingerprint_terms",
    "register", "resolve",
]
