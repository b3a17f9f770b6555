"""The counter registry: one protocol, six pluggable implementations.

Before the API layer, the four evaluation configurations travelled four
unrelated call paths (``pact_count``, ``cdm_count``, ``exact_count``,
``harness/runner._dispatch``'s string-switch, per-command argparse
wiring).  Every counter is now a :class:`Counter` — an object with a
``name`` and one ``count(problem, request) -> CountResponse`` method —
registered under a canonical name:

    ========== =======================================
    name       implementation
    ========== =======================================
    pact:xor   Algorithm 1 with the H_xor family
    pact:prime Algorithm 1 with the H_prime family
    pact:shift Algorithm 1 with the H_shift family
    cdm        the self-composition baseline
    enum       exact projected enumeration
    exact:cc   exact component-caching search
    ========== =======================================

Legacy spellings (``pact_xor`` from the harness configurations, bare
``xor`` from the CLI's ``--family``) resolve through an alias table, so
every entry point shares one lookup and one error message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.api.problem import Problem
from repro.api.request import CountRequest, CountResponse
from repro.core.cdm import cdm_count
from repro.core.config import FAMILIES, PactConfig
from repro.core.enumerate import exact_count
from repro.core.pact import pact_count
from repro.count_exact import cc_count
from repro.errors import CounterError

__all__ = [
    "Counter", "available_counters", "canonical_name", "register",
    "resolve",
]


@runtime_checkable
class Counter(Protocol):
    """The one interface every counting algorithm implements.

    ``pool`` optionally fans independent iterations out across a
    :class:`repro.engine.pool.ExecutionPool`; ``deadline`` is an external
    (possibly cancellable) :class:`repro.utils.deadline.Deadline` that
    overrides the request's own timeout — the portfolio runner uses it to
    race counters under one shared budget.
    """

    name: str

    def count(self, problem: Problem, request: CountRequest, *,
              pool=None, deadline=None) -> CountResponse:
        ...


@dataclass(frozen=True)
class PactCounter:
    """Algorithm 1 under one hash family, as a registry counter."""

    family: str

    @property
    def name(self) -> str:
        return f"pact:{self.family}"

    def count(self, problem: Problem, request: CountRequest, *,
              pool=None, deadline=None) -> CountResponse:
        config = PactConfig(
            epsilon=request.epsilon, delta=request.delta,
            family=self.family, seed=request.seed,
            timeout=request.timeout,
            iteration_override=request.iteration_override)
        result = pact_count(list(problem.assertions),
                            list(problem.projection), config,
                            deadline=deadline, pool=pool,
                            digest=problem.compile_key)
        return CountResponse.from_result(result, counter=self.name,
                                         problem=problem.name)


@dataclass(frozen=True)
class CdmCounter:
    """The CDM baseline as a registry counter."""

    name: str = "cdm"

    def count(self, problem: Problem, request: CountRequest, *,
              pool=None, deadline=None) -> CountResponse:
        result = cdm_count(
            list(problem.assertions), list(problem.projection),
            epsilon=request.epsilon, delta=request.delta,
            seed=request.seed, timeout=request.timeout,
            iteration_override=request.iteration_override, pool=pool,
            deadline=deadline, digest=problem.compile_key)
        return CountResponse.from_result(result, counter=self.name,
                                         problem=problem.name)


@dataclass(frozen=True)
class EnumCounter:
    """Exact projected enumeration as a registry counter."""

    name: str = "enum"

    def count(self, problem: Problem, request: CountRequest, *,
              pool=None, deadline=None) -> CountResponse:
        result = exact_count(list(problem.assertions),
                             list(problem.projection),
                             timeout=request.timeout,
                             limit=request.limit, deadline=deadline)
        return CountResponse.from_result(result, counter=self.name,
                                         problem=problem.name)


@dataclass(frozen=True)
class CcCounter:
    """Exact component-caching search as a registry counter.

    Counts on the same compiled artifact the pact counters solve on
    (one compile per problem per process, shared through the memo).  A
    process ``pool`` fans top-level components (and cube splits of wide
    ones) out across its workers (a thread pool runs the serial search),
    and ``request.component_store`` attaches the shared on-disk
    component cache — counts are bit-identical to the serial, storeless
    run either way.
    """

    name: str = "exact:cc"

    def count(self, problem: Problem, request: CountRequest, *,
              pool=None, deadline=None) -> CountResponse:
        result = cc_count(list(problem.assertions),
                          list(problem.projection),
                          timeout=request.timeout, deadline=deadline,
                          digest=problem.compile_key, pool=pool,
                          component_store=request.component_store)
        return CountResponse.from_result(result, counter=self.name,
                                         problem=problem.name)


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
_COUNTERS: dict[str, Counter] = {}
_ALIASES: dict[str, str] = {}


def register(counter: Counter, aliases: tuple[str, ...] = ()) -> Counter:
    """Register ``counter`` under its canonical name plus ``aliases``."""
    _COUNTERS[counter.name] = counter
    for alias in aliases:
        _ALIASES[alias] = counter.name
    return counter


def canonical_name(name: str) -> str:
    """Resolve any accepted spelling to the canonical registry name."""
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _COUNTERS:
        raise CounterError(
            f"unknown counter {name!r}; available: "
            f"{', '.join(available_counters())}")
    return key


def resolve(name: str) -> Counter:
    """Look a counter up by any accepted spelling."""
    return _COUNTERS[canonical_name(name)]


def available_counters() -> tuple[str, ...]:
    """The canonical counter names, sorted."""
    return tuple(sorted(_COUNTERS))


for _family in FAMILIES:
    register(PactCounter(_family), aliases=(f"pact_{_family}", _family))
register(CdmCounter(), aliases=("pact_cdm",))
register(EnumCounter(), aliases=("enumerate", "exact"))
register(CcCounter(), aliases=("cc", "exact_cc"))
