"""The request/response pair of the counting API.

:class:`CountRequest` subsumes the parameter plumbing that used to be
split between :class:`repro.core.config.PactConfig`, ``cdm_count``'s
keyword list and the CLI's argparse wiring: one immutable record of
*how* to count (which counter, the PAC parameters, the budget).
:class:`CountResponse` subsumes :class:`repro.core.result.CountResult`
with a proper :class:`repro.status.Status`, cache attribution and worker
accounting; it is what every entry point — library, CLI, harness,
portfolio — gets back.  Both are plain picklable dataclasses, so they
cross process boundaries unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import CounterError
from repro.status import Status


@dataclass(frozen=True)
class CountRequest:
    """Parameters of one counting run.

    ``counter`` is a registry name (``"pact:xor"``, ``"pact:prime"``,
    ``"pact:shift"``, ``"cdm"``, ``"enum"``, ``"exact:cc"``; legacy
    aliases such as ``"pact_xor"`` or bare ``"xor"`` resolve too).
    ``epsilon``/``delta`` are the PAC guarantee parameters; ``seed``
    makes the run reproducible; ``timeout`` is the wall-clock budget in
    seconds; ``iteration_override`` replaces Algorithm 3's numIt for
    scaled-down runs; ``limit`` caps the ``enum`` counter's enumeration;
    ``component_store`` points ``exact:cc`` at a shared on-disk
    component cache (a database file's ``components`` table — counts
    are exact either way, but a warmed store changes how much search a
    budget buys, so it keys the fingerprint).
    """

    counter: str = "pact:xor"
    epsilon: float = 0.8
    delta: float = 0.2
    seed: int = 1
    timeout: float | None = None
    iteration_override: int | None = None
    limit: int | None = None
    component_store: str | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise CounterError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise CounterError("delta must be in (0, 1)")
        if self.iteration_override is not None and self.iteration_override < 1:
            raise CounterError("iteration_override must be >= 1")

    def replace(self, **changes) -> "CountRequest":
        return dataclasses.replace(self, **changes)

    def cache_params(self, counter: str | None = None) -> dict:
        """Everything that changes the answer or the budget, as the
        fingerprint parameter mapping (``counter`` overrides the request's
        own name with its canonical registry spelling).  The store key
        is added only when a store is set, so storeless fingerprints
        stay byte-identical to caches written before it existed."""
        params = {"counter": counter or self.counter,
                  "epsilon": self.epsilon, "delta": self.delta,
                  "seed": self.seed, "timeout": self.timeout,
                  "iterations": self.iteration_override,
                  "limit": self.limit}
        if self.component_store:
            params["component_store"] = str(self.component_store)
        return params


@dataclass(frozen=True)
class ProgressEvent:
    """A structured progress notification from a :class:`Session` run.

    ``kind`` is ``"cache-hit"``, ``"completed"``, ``"winner"`` or
    ``"cancelled"``.
    """

    kind: str
    problem: str
    counter: str
    status: Status | None = None
    time_seconds: float = 0.0
    message: str = ""


@dataclass
class CountResponse:
    """Outcome of one counting run, as served by the API layer.

    ``cached`` marks responses served from the fingerprint cache (their
    ``time_seconds`` is the original solve time, not the lookup time);
    ``worker`` names the pool slot that produced the response.
    """

    estimate: int | None
    status: Status = Status.OK
    exact: bool = False
    counter: str = ""
    problem: str = ""
    solver_calls: int = 0
    sat_answers: int = 0
    iterations: int = 0
    time_seconds: float = 0.0
    detail: str = ""
    estimates: list[int] = field(default_factory=list)
    cached: bool = False
    worker: str = ""

    def __post_init__(self):
        self.status = Status.coerce(self.status)

    @property
    def solved(self) -> bool:
        return self.status is Status.OK and self.estimate is not None

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result, *, counter: str,
                    problem: str) -> "CountResponse":
        """Adapt a :class:`repro.core.result.CountResult`."""
        return cls(estimate=result.estimate, status=result.status,
                   exact=result.exact, counter=counter, problem=problem,
                   solver_calls=result.solver_calls,
                   sat_answers=result.sat_answers,
                   iterations=result.iterations,
                   time_seconds=result.time_seconds,
                   detail=result.detail,
                   estimates=list(result.estimates))

    def to_payload(self) -> dict:
        """The one writer of the result-store entry schema (the
        ``payload`` column of :class:`repro.serve.store.SqliteStore`'s
        ``entries`` table).  The core keys match the pre-API cache
        format; optional keys are omitted when empty (every reader uses
        ``.get``)."""
        payload = {"estimate": self.estimate, "status": str(self.status),
                   "exact": self.exact, "time_seconds": self.time_seconds,
                   "solver_calls": self.solver_calls}
        if self.counter:
            payload["counter"] = self.counter
        if self.iterations:
            payload["iterations"] = self.iterations
        if self.detail:
            payload["detail"] = self.detail
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping, *, counter: str,
                     problem: str) -> "CountResponse":
        """Rebuild from a cache entry; entries written by the pre-API
        cache format (no ``counter``/``iterations`` keys) load too."""
        return cls(estimate=payload.get("estimate"),
                   status=Status.coerce(payload.get("status", Status.ERROR)),
                   exact=bool(payload.get("exact", False)),
                   counter=payload.get("counter", counter),
                   problem=problem,
                   solver_calls=payload.get("solver_calls", 0),
                   iterations=payload.get("iterations", 0),
                   time_seconds=payload.get("time_seconds", 0.0),
                   detail=payload.get("detail", ""), cached=True,
                   worker="cache")

    def __repr__(self) -> str:
        source = " cached" if self.cached else ""
        if self.solved:
            kind = "exact" if self.exact else "approx"
            return (f"CountResponse({self.counter}: {kind} "
                    f"{self.estimate}, time={self.time_seconds:.2f}s"
                    f"{source})")
        return (f"CountResponse({self.counter}: {self.status}, "
                f"time={self.time_seconds:.2f}s{source})")
