"""The always-on counting service: asyncio front, pool-backed workers.

Request flow::

    connection -> read_request -> route -> admission (429 + Retry-After
    on back-pressure) -> bounded priority queue -> worker coroutine ->
    asyncio.to_thread -> Session.count / portfolio on the ExecutionPool
    -> response (sync clients await the job future; async clients poll
    GET /jobs/<id>)

Routes (all bodies and responses are JSON):

* ``POST /count`` — ``{"script": "<SMT-LIB>", "counter": "pact:xor",
  "epsilon": .., "delta": .., "seed": .., "timeout": ..,
  "project": [..], "tenant": .., "priority": .., "mode": "sync"}``;
  ``mode: "async"`` answers 202 with a job id immediately.
* ``POST /batch`` — ``{"problems": [{"script": ..., "name": ...}, ...],
  ...request fields...}``; one response entry per problem, input order.
* ``POST /portfolio`` — ``{"script": ..., "counters": [...], ...}``;
  the race semantics of :meth:`Session.portfolio`.
* ``GET /jobs/<id>`` — job status/result for async submissions.
* ``GET /healthz`` — liveness + queue depth (503 while draining).
* ``GET /metrics`` — the text exposition of :mod:`repro.serve.metrics`.

Deadlines compose exactly like everywhere else in the engine: a
request's ``timeout`` starts at admission, so queue wait spends the
same budget the count does, and the worker hands the counter a
:class:`~repro.utils.deadline.CooperativeDeadline` sharing the server's
drain-cancel token — a forced shutdown cuts long counts short
cooperatively, flushes the store, and still answers every admitted
request (with ``timeout`` status rather than silence).

Counting happens off the event loop: workers run jobs in threads
(``asyncio.to_thread``) against one shared :class:`Session` whose
store (:class:`~repro.serve.store.SqliteStore`) is thread-safe, and
whose :class:`ExecutionPool` fans counter iterations out when
parallel.  The event loop only parses, queues and answers.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.api import CountRequest, Problem, Session
from repro.errors import ReproError
from repro.serve.http import (
    HttpError, HttpRequest, read_request, response_bytes,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import (
    DEFAULT_PRIORITY, AdmissionQueue, AdmissionReject, Job,
)
from repro.status import Status
from repro.utils.deadline import CooperativeDeadline

__all__ = ["CountingService", "ServeConfig"]

# Request fields shared by every route and forwarded into CountRequest.
_REQUEST_FIELDS = ("counter", "epsilon", "delta", "seed",
                   "iteration_override", "limit")
# Flush the store every this many completed jobs (and at shutdown).
# Rows are durable at put time; a flush only enforces the store's
# max_entries bound, so it need not run per job.
FLUSH_EVERY = 64
COMPLETED_JOBS_KEPT = 1024


@dataclass
class ServeConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0: the OS picks a free port
    workers: int = 4                   # concurrent counting threads
    queue_depth: int = 256             # hard queue capacity
    high_watermark: int | None = None  # admission cutoff (default: depth)
    tenant_limit: int | None = None    # per-tenant in-flight cap
    default_timeout: float | None = 300.0
    drain_timeout: float = 10.0


class CountingService:
    """One service instance bound to a session and a store."""

    def __init__(self, session: Session,
                 config: ServeConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.session = session
        # A service timeout can reflect queue wait or drain
        # cancellation — never cache it under the nominal-budget key.
        self.session.store_timeouts = False
        self.config = config or ServeConfig()
        self.metrics = metrics or MetricsRegistry()
        self.queue = AdmissionQueue(
            capacity=self.config.queue_depth,
            high_watermark=self.config.high_watermark,
            tenant_limit=self.config.tenant_limit,
            workers=self.config.workers)
        self.host = self.config.host
        self.port = self.config.port
        self._jobs: dict[str, Job] = {}
        self._completed: OrderedDict[str, Job] = OrderedDict()
        self._job_ids = itertools.count(1)
        self._cancel = threading.Event()   # shared drain-cancel token
        self._running = 0                  # jobs inside a worker thread
        self._since_flush = 0
        self._server: asyncio.base_events.Server | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._started_at = time.monotonic()
        self.draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket and launch the worker coroutines."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"worker-{n}")
            for n in range(self.config.workers)]

    async def shutdown(self, drain_timeout: float | None = None) -> dict:
        """Graceful stop: drain, then cut, then flush.

        New work is rejected (admission reason ``draining``), queued
        and running jobs get up to ``drain_timeout`` seconds to finish,
        stragglers are cancelled cooperatively via the shared token
        (they answer with ``timeout`` status), the store is flushed and
        the metrics snapshot returned as the shutdown summary.
        """
        if drain_timeout is None:
            drain_timeout = self.config.drain_timeout
        self.draining = True
        self.queue.start_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while ((self.queue.depth or self._running)
               and time.monotonic() < deadline):
            await asyncio.sleep(0.02)
        if self.queue.depth or self._running:
            # Out of patience: trip every running CooperativeDeadline.
            self._cancel.set()
            grace = time.monotonic() + 5.0
            while ((self.queue.depth or self._running)
                   and time.monotonic() < grace):
                await asyncio.sleep(0.02)
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # Any job still unanswered (its worker was cancelled mid-run)
        # gets a timeout answer: every admitted request is answered.
        for job in list(self._jobs.values()):
            job.status = "failed"
            job.result = {"job": job.id, "status": str(Status.TIMEOUT),
                          "detail": "server shut down before completion"}
            self._finish(job, job.result)
        if self.session.cache is not None:
            await asyncio.to_thread(self.session.cache.flush)
        self._refresh_gauges()
        return self.metrics.to_dict()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # connections and routing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as error:
                    writer.write(response_bytes(
                        error.status, {"error": error.message},
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                if not request.keep_alive:
                    # Rewrite the connection header half of the framing:
                    # the body length is already explicit.
                    response = response.replace(
                        b"Connection: keep-alive",
                        b"Connection: close", 1)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (asyncio.IncompleteReadError, OSError):
            pass   # client went away; any running job still completes
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        route = request.path.rstrip("/") or "/"
        self.metrics.counter("requests_total", route=route or "/").inc()
        try:
            if request.method == "POST" and route == "/count":
                return await self._submit(request, "count")
            if request.method == "POST" and route == "/batch":
                return await self._submit(request, "batch")
            if request.method == "POST" and route == "/portfolio":
                return await self._submit(request, "portfolio")
            if request.method == "GET" and route.startswith("/jobs/"):
                return self._get_job(route[len("/jobs/"):])
            if request.method == "GET" and route == "/healthz":
                return self._healthz()
            if request.method == "GET" and route == "/metrics":
                return self._get_metrics()
            return self._answer(404, {"error": f"no route {route}"})
        except HttpError as error:
            return self._answer(error.status, {"error": error.message})
        except Exception as error:  # noqa: BLE001 - a 500, not a crash
            return self._answer(500, {"error": f"{type(error).__name__}: "
                                               f"{error}"})

    def _answer(self, status: int, body, headers=None) -> bytes:
        self.metrics.counter("responses_total", code=str(status)).inc()
        return response_bytes(status, body, headers=headers)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def _submit(self, request: HttpRequest, kind: str) -> bytes:
        body = request.json()
        self._validate(body, kind)
        tenant = (request.headers.get("x-tenant")
                  or str(body.get("tenant", "default")))
        timeout = body.get("timeout", self.config.default_timeout)
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise HttpError(400, "timeout must be positive")
        job = Job(
            id=f"j{next(self._job_ids):08d}", kind=kind, payload=body,
            tenant=tenant,
            priority=int(body.get("priority", DEFAULT_PRIORITY)),
            deadline_at=(time.monotonic() + timeout
                         if timeout is not None else None))
        try:
            self.queue.submit(job)
        except AdmissionReject as reject:
            self.metrics.counter("admission_rejects_total",
                                 reason=reject.reason).inc()
            self._refresh_gauges()
            return self._answer(
                429 if reject.reason != "draining" else 503,
                {"error": f"not admitted: {reject.reason}",
                 "retry_after": reject.retry_after},
                headers={"Retry-After": str(reject.retry_after)})
        self._jobs[job.id] = job
        self._refresh_gauges()
        if str(body.get("mode", "sync")).lower() == "async":
            return self._answer(202, {"job": job.id, "status": job.status})
        payload = await job.future
        return self._answer(200, payload)

    @staticmethod
    def _validate(body: dict, kind: str) -> None:
        if kind == "batch":
            problems = body.get("problems")
            if (not isinstance(problems, list) or not problems
                    or not all(isinstance(entry, dict)
                               and isinstance(entry.get("script"), str)
                               for entry in problems)):
                raise HttpError(400, "batch needs a non-empty 'problems'"
                                     " list of {script, name?} objects")
        elif not isinstance(body.get("script"), str):
            raise HttpError(400, f"{kind} needs an SMT-LIB 'script'"
                                 " string")

    # ------------------------------------------------------------------
    # read-only routes
    # ------------------------------------------------------------------
    def _get_job(self, job_id: str) -> bytes:
        job = self._jobs.get(job_id) or self._completed.get(job_id)
        if job is None:
            return self._answer(404, {"error": f"unknown job {job_id}"})
        document = {"job": job.id, "kind": job.kind, "status": job.status}
        if job.result is not None:
            document["result"] = job.result
        return self._answer(200, document)

    def _healthz(self) -> bytes:
        document = {
            "status": "draining" if self.draining else str(Status.OK),
            "queue_depth": self.queue.depth,
            "running": self._running,
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3)}
        return self._answer(503 if self.draining else 200, document)

    def _get_metrics(self) -> bytes:
        self._refresh_gauges()
        self.metrics.counter("responses_total", code="200").inc()
        return response_bytes(200, self.metrics.render_text(),
                              content_type="text/plain; version=0.0.4")

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("queue_depth").set(self.queue.depth)
        self.metrics.gauge("inflight").set(self.queue.depth
                                           + self._running)
        cache = self.session.cache
        if cache is not None:
            self.metrics.gauge("store_entries").set(len(cache))

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            job = await self.queue.get()
            job.status = "running"
            self._running += 1
            self._refresh_gauges()
            started = time.monotonic()
            try:
                payload = await asyncio.to_thread(self._execute, job)
                job.status = ("done" if payload.get("status")
                              not in (Status.ERROR,) else "failed")
            except Exception as error:  # noqa: BLE001 - answered, not fatal
                payload = {"job": job.id, "status": str(Status.ERROR),
                           "detail": f"{type(error).__name__}: {error}"}
                job.status = "failed"
            job.result = payload
            elapsed = time.monotonic() - started
            self.queue.note_service_time(elapsed)
            self._observe(job, payload, elapsed)
            self._running -= 1
            self.queue.release(job)
            self._finish(job, payload)
            self._refresh_gauges()
            self._since_flush += 1
            if self._since_flush >= FLUSH_EVERY:
                self._since_flush = 0
                if self.session.cache is not None:
                    await asyncio.to_thread(self.session.cache.flush)

    def _observe(self, job: Job, payload: dict, elapsed: float) -> None:
        counter = str(payload.get("counter", "")
                      or job.payload.get("counter", "default"))
        self.metrics.histogram("latency_seconds",
                               counter=counter).observe(elapsed)
        self.metrics.counter("jobs_total", kind=job.kind,
                             status=str(payload.get("status"))).inc()
        hits = _count_cached(payload)
        total = _count_entries(payload)
        if hits:
            self.metrics.counter("cache_hits_total").inc(hits)
        if total - hits:
            self.metrics.counter("cache_misses_total").inc(total - hits)

    def _finish(self, job: Job, payload: dict) -> None:
        if not job.future.done():
            job.future.set_result(payload)
        self._jobs.pop(job.id, None)
        self._completed[job.id] = job
        while len(self._completed) > COMPLETED_JOBS_KEPT:
            self._completed.popitem(last=False)

    # ------------------------------------------------------------------
    # job execution (worker threads — everything below runs off-loop)
    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> dict:
        remaining = None
        if job.deadline_at is not None:
            remaining = job.deadline_at - time.monotonic()
            if remaining <= 0:
                return {"job": job.id, "status": str(Status.TIMEOUT),
                        "detail": "deadline expired in queue"}
        try:
            if job.kind == "count":
                return self._execute_count(job, remaining)
            if job.kind == "batch":
                return self._execute_batch(job, remaining)
            return self._execute_portfolio(job, remaining)
        except ReproError as error:
            return {"job": job.id, "status": str(Status.ERROR),
                    "detail": str(error)}

    def _problem(self, document: dict, fallback_name: str) -> Problem:
        project = document.get("project")
        if project is not None and not isinstance(project, list):
            raise ReproError("'project' must be a list of variable names")
        return Problem.from_script(
            document["script"],
            name=str(document.get("name", fallback_name)),
            project=project)

    def _request(self, document: dict) -> CountRequest:
        """The counting request under its *nominal* timeout.

        The nominal budget keys the cache fingerprint — it must be
        stable across identical requests, so repeats hit.  What is
        actually enforced is the job's :meth:`_deadline` (admission
        time + nominal budget, minus queue wait, minus any drain
        cancellation), which the counters honour independently.
        """
        fields = {name: document[name] for name in _REQUEST_FIELDS
                  if document.get(name) is not None}
        timeout = document.get("timeout", self.config.default_timeout)
        return self.session.request.replace(
            timeout=float(timeout) if timeout is not None else None,
            **fields)

    def _deadline(self, remaining: float | None) -> CooperativeDeadline:
        return CooperativeDeadline(remaining, self._cancel)

    def _execute_count(self, job: Job, remaining: float | None) -> dict:
        problem = self._problem(job.payload, job.id)
        response = self.session.count(
            problem, self._request(job.payload),
            deadline=self._deadline(remaining))
        return {"job": job.id, **_response_document(response)}

    def _execute_batch(self, job: Job, remaining: float | None) -> dict:
        """One shared budget across the batch (the portfolio rule), the
        per-problem cache consulted exactly as in ``count_batch``."""
        deadline = self._deadline(remaining)
        entries = []
        for index, document in enumerate(job.payload["problems"]):
            problem = self._problem(document, f"{job.id}-{index}")
            request = self._request({**job.payload, **document})
            response = self.session.count(problem, request,
                                          deadline=deadline)
            entries.append(_response_document(response))
        solved = sum(1 for entry in entries
                     if entry["status"] == Status.OK)
        return {"job": job.id, "status": str(Status.OK),
                "solved": solved, "entries": entries}

    def _execute_portfolio(self, job: Job,
                           remaining: float | None) -> dict:
        problem = self._problem(job.payload, job.id)
        counters = job.payload.get("counters")
        outcome = self.session.portfolio(
            problem, counters, self._request(job.payload),
            timeout=remaining, deadline=self._deadline(remaining))
        document = {"job": job.id,
                    "status": (str(Status.OK) if outcome.solved
                               else "unsolved"),
                    "winner": outcome.winner,
                    "elapsed": round(outcome.elapsed, 6),
                    "entries": [_response_document(entry)
                                for entry in outcome.entries]}
        if outcome.response is not None:
            document["estimate"] = outcome.response.estimate
            document["exact"] = outcome.response.exact
        return document


def _response_document(response) -> dict:
    """A CountResponse as the wire document (superset of the cache
    payload, plus cache/worker attribution)."""
    return {"counter": response.counter, "problem": response.problem,
            "status": str(response.status),
            "estimate": response.estimate, "exact": response.exact,
            "cached": response.cached,
            "solver_calls": response.solver_calls,
            "iterations": response.iterations,
            "time_seconds": round(response.time_seconds, 6),
            "detail": response.detail}


def _count_entries(payload: dict) -> int:
    if "entries" in payload:
        return len(payload["entries"])
    return 1 if "counter" in payload else 0


def _count_cached(payload: dict) -> int:
    if "entries" in payload:
        return sum(1 for entry in payload["entries"]
                   if entry.get("cached"))
    return 1 if payload.get("cached") else 0
