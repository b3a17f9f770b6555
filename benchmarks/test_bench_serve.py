"""Serving-layer load benchmark: saturation, repeats, overload.

Three phases against a live ``CountingService`` over real sockets:

* **saturation** — hundreds of distinct async counting requests
  admitted while the worker threads are held, then drained; the
  acceptance bar is >= 200 requests in flight at once with zero lost
  and zero duplicated responses (every admitted job id answered exactly
  once), and the throughput is timed from the workers' release;
* **repeat** — one identical request replayed; everything after the
  first must come from the persistent store (cache hit-rate > 50%);
* **overload** — a deliberately tiny queue; the excess must be shed
  with 429 + ``Retry-After`` admission rejects, not queued silence.

Artifacts: ``bench_results/serve.txt`` (phase table + latency
percentiles) and ``BENCH_serve.json`` (machine-readable metrics).
"""

import asyncio
import json
import threading
import time

from benchmarks.conftest import emit, emit_json
from repro.api import Session
from repro.harness.report import format_table
from repro.serve.http import http_request
from repro.serve.server import CountingService, ServeConfig

SCRIPT = """
(set-logic QF_BV)
(declare-fun x () (_ BitVec 6))
(assert (bvult x #b010100))
(set-info :projected-vars (x))
"""
BODY = {"script": SCRIPT, "counter": "pact:xor", "seed": 11,
        "iteration_override": 1, "timeout": 120}

SATURATION_JOBS = 250
SATURATION_TARGET = 200       # in-flight high water the bench must hit
REPEAT_REQUESTS = 40
CLIENTS = 16

_metrics: dict = {}
_rows: list = []


async def _post(service, path, body):
    status, headers, payload = await http_request(
        service.host, service.port, "POST", path, body=body)
    return status, headers, json.loads(payload)


async def _drain(service, timeout=120.0):
    deadline = time.monotonic() + timeout
    while (service.queue.depth or service._running) \
            and time.monotonic() < deadline:
        await asyncio.sleep(0.02)
    assert not service.queue.depth and not service._running, \
        "service failed to drain the submitted load"


async def _submit_async_jobs(service, payloads):
    """Fan the submissions across keep-alive client connections."""
    ids: list = []

    async def client(chunk):
        reader, writer = await asyncio.open_connection(
            service.host, service.port)
        try:
            for payload in chunk:
                status, _, body = await http_request(
                    service.host, service.port, "POST", "/count",
                    body=payload, reader_writer=(reader, writer))
                assert status == 202, f"admission failed: {body}"
                ids.append(json.loads(body)["job"])
        finally:
            writer.close()
            await writer.wait_closed()

    chunks = [payloads[n::CLIENTS] for n in range(CLIENTS)]
    await asyncio.gather(*(client(chunk) for chunk in chunks
                           if chunk))
    return ids


def test_saturation_no_lost_no_duplicated_responses(tmp_path):
    """Phase 1: >= 200 in flight, every job answered exactly once."""
    async def scenario():
        session = Session(cache_dir=tmp_path / "serve-bench.sqlite")
        service = CountingService(session, ServeConfig(
            port=0, workers=2, queue_depth=512))
        # Hold both workers until every submission is admitted: the
        # in-flight high water then follows from admission, not from
        # how fast the event loop submits while the workers count.
        release = threading.Event()
        execute = service._execute

        def held(job):
            release.wait(timeout=60.0)
            return execute(job)

        service._execute = held
        await service.start()
        try:
            # Distinct seeds: distinct fingerprints (no cache hits),
            # one shared compile artifact — pure counting load.
            payloads = [{**BODY, "seed": n, "mode": "async"}
                        for n in range(SATURATION_JOBS)]
            started = time.monotonic()
            ids = await _submit_async_jobs(service, payloads)
            submitted = time.monotonic() - started
            released = time.monotonic()
            release.set()
            await _drain(service)
            wall = time.monotonic() - released

            assert len(ids) == SATURATION_JOBS
            assert len(set(ids)) == SATURATION_JOBS, "duplicated ids"
            lost = 0
            for job_id in ids:
                job = service._completed.get(job_id)
                if job is None or job.result is None:
                    lost += 1
                    continue
                assert job.result["status"] == "ok", job.result
                assert job.future.done()
            assert lost == 0, f"{lost} jobs lost"
            inflight_high = service.metrics.gauge(
                "inflight").high_water
            assert inflight_high >= SATURATION_TARGET, (
                f"in-flight high water {inflight_high} < "
                f"{SATURATION_TARGET}")

            summary = await service.shutdown(drain_timeout=5.0)
            return {"ids": len(ids), "lost": lost,
                    "inflight_high_water": inflight_high,
                    "submit_seconds": round(submitted, 3),
                    "wall_seconds": round(wall, 3),
                    "throughput_jobs_per_s": round(
                        SATURATION_JOBS / wall, 1),
                    "summary": summary}
        finally:
            release.set()
            session.cache.close()

    outcome = asyncio.run(scenario())
    latency = next(value for key, value
                   in outcome["summary"]["histograms"].items()
                   if key.startswith("latency_seconds"))
    _metrics["saturation"] = {
        "jobs": outcome["ids"], "lost": outcome["lost"],
        "duplicated": 0,
        "inflight_high_water": outcome["inflight_high_water"],
        "throughput_jobs_per_s": outcome["throughput_jobs_per_s"],
        "latency_p50_seconds": latency["p50"],
        "latency_p99_seconds": latency["p99"],
    }
    _rows.append(["saturation", outcome["ids"],
                  outcome["inflight_high_water"],
                  f"{outcome['wall_seconds']:.2f}",
                  f"{latency['p50']:.4f}", f"{latency['p99']:.4f}"])


def test_repeat_workload_hits_the_store(tmp_path):
    """Phase 2: replayed request served from the persistent store."""
    async def scenario():
        session = Session(cache_dir=tmp_path / "serve-bench.sqlite")
        service = CountingService(session, ServeConfig(
            port=0, workers=2, queue_depth=64))
        await service.start()
        try:
            estimates = set()
            started = time.monotonic()
            for _ in range(REPEAT_REQUESTS):
                status, _, document = await _post(service, "/count",
                                                  BODY)
                assert status == 200 and document["status"] == "ok"
                estimates.add(document["estimate"])
            wall = time.monotonic() - started
            assert len(estimates) == 1, "repeats must agree"
            summary = await service.shutdown(drain_timeout=5.0)
            return wall, summary
        finally:
            session.cache.close()

    wall, summary = asyncio.run(scenario())
    hits = summary["counters"].get("cache_hits_total", 0)
    misses = summary["counters"].get("cache_misses_total", 0)
    hit_rate = hits / max(1, hits + misses)
    assert hit_rate > 0.5, f"hit rate {hit_rate:.2f} <= 0.5"
    assert hits == REPEAT_REQUESTS - 1
    latency = next(value for key, value
                   in summary["histograms"].items()
                   if key.startswith("latency_seconds"))
    _metrics["repeat"] = {
        "requests": REPEAT_REQUESTS,
        "cache_hits": hits, "cache_misses": misses,
        "hit_rate": round(hit_rate, 4),
        "latency_p50_seconds": latency["p50"],
        "latency_p99_seconds": latency["p99"],
    }
    _rows.append(["repeat", REPEAT_REQUESTS,
                  f"hit-rate {hit_rate:.2f}", f"{wall:.2f}",
                  f"{latency['p50']:.4f}", f"{latency['p99']:.4f}"])


def test_overload_sheds_load_with_429(tmp_path):
    """Phase 3: a tiny queue sheds the excess with 429 + Retry-After."""
    async def scenario():
        session = Session(cache_dir=tmp_path / "serve-bench.sqlite")
        service = CountingService(session, ServeConfig(
            port=0, workers=1, queue_depth=4, high_watermark=2))
        # Hold the one worker until every post is answered: the queue
        # fills by construction instead of racing the worker's drain.
        release = threading.Event()
        execute = service._execute

        def held(job):
            release.wait(timeout=60.0)
            return execute(job)

        service._execute = held
        await service.start()
        try:
            accepted, rejected, retry_hints = 0, 0, []
            for n in range(15):
                status, headers, _ = await _post(
                    service, "/count",
                    {**BODY, "seed": 1000 + n, "mode": "async"})
                if status == 202:
                    accepted += 1
                else:
                    assert status == 429
                    retry_hints.append(int(headers["retry-after"]))
                    rejected += 1
            release.set()
            await _drain(service)
            summary = await service.shutdown(drain_timeout=5.0)
            return accepted, rejected, retry_hints, summary
        finally:
            session.cache.close()

    accepted, rejected, retry_hints, summary = asyncio.run(scenario())
    assert rejected > 0, "the tiny queue never pushed back"
    assert accepted + rejected == 15
    assert all(hint >= 1 for hint in retry_hints)
    rejects_metric = summary["counters"].get(
        'admission_rejects_total{reason="queue_full"}', 0)
    assert rejects_metric == rejected
    _metrics["overload"] = {
        "submitted": 15, "accepted": accepted,
        "admission_rejects": rejected,
        "min_retry_after_seconds": min(retry_hints),
    }
    _rows.append(["overload", 15, f"{rejected} x 429", "-", "-", "-"])


def test_serve_report(results_dir):
    assert {"saturation", "repeat", "overload"} <= set(_metrics), \
        "phase benches must run first"
    table = format_table(
        ["phase", "requests", "back-pressure", "wall s", "p50 s",
         "p99 s"],
        _rows,
        title=(f"Serving layer under load ({SATURATION_JOBS} async "
               f"jobs via {CLIENTS} keep-alive clients; sqlite store)"))
    summary = (
        f"in-flight high water: "
        f"{_metrics['saturation']['inflight_high_water']} "
        f"(target >= {SATURATION_TARGET}); lost/duplicated: 0/0; "
        f"repeat hit-rate: {_metrics['repeat']['hit_rate']:.2f}; "
        f"admission rejects under overload: "
        f"{_metrics['overload']['admission_rejects']}")
    emit(results_dir, "serve.txt", table + "\n" + summary)
    emit_json(results_dir, "serve", _metrics)
