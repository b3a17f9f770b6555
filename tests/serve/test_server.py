"""CountingService end to end: real sockets, real counts, real store."""

import asyncio
import json
import time

import pytest

from repro.api import Session
from repro.serve.http import http_request
from repro.serve.server import CountingService, ServeConfig

SCRIPT = """
(set-logic QF_BV)
(declare-fun x () (_ BitVec 6))
(assert (bvult x #b010100))
(set-info :projected-vars (x))
"""
# 20 models; pact:xor estimates, enum is exact.
BODY = {"script": SCRIPT, "counter": "pact:xor", "seed": 11,
        "iteration_override": 3, "timeout": 60}


def _serve(scenario, tmp_path=None, session=None, **config):
    """Run ``scenario(service)`` against a started service; always
    shut down afterwards (idempotent if the scenario already did)."""
    async def runner():
        owned = session or Session(
            cache_dir=tmp_path / "store.sqlite" if tmp_path else None)
        service = CountingService(owned, ServeConfig(port=0, **config))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.shutdown(drain_timeout=5.0)
            if owned.cache is not None:
                owned.cache.close()
    return asyncio.run(runner())


async def _post(service, path, body, headers=None):
    status, response_headers, payload = await http_request(
        service.host, service.port, "POST", path, body=body,
        headers=headers)
    return status, response_headers, json.loads(payload)


async def _get(service, path):
    status, _, payload = await http_request(
        service.host, service.port, "GET", path)
    return status, payload


async def _await_job(service, job_id, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = await _get(service, f"/jobs/{job_id}")
        assert status == 200
        document = json.loads(payload)
        if document["status"] in ("done", "failed"):
            return document
        await asyncio.sleep(0.05)
    raise AssertionError(f"job {job_id} never completed")


def _slow_execute(service, seconds):
    """Stand-in count body: hold the slot, then answer ok.  Patching
    below ``_execute`` keeps the real queue-deadline check live."""
    def execute_count(job, remaining):
        time.sleep(seconds)
        return {"job": job.id, "status": "ok", "counter": "stub",
                "cached": False}
    service._execute_count = execute_count


class TestCount:
    def test_count_solves_and_repeats_from_store(self, tmp_path):
        async def scenario(service):
            status, _, first = await _post(service, "/count", BODY)
            assert status == 200
            assert first["status"] == "ok"
            assert first["counter"] == "pact:xor"
            assert first["estimate"] is not None
            assert first["cached"] is False
            status, _, second = await _post(service, "/count", BODY)
            assert status == 200
            assert second["cached"] is True
            assert second["estimate"] == first["estimate"]
            status, text = await _get(service, "/metrics")
            assert status == 200
            exposition = text.decode()
            assert "pact_serve_cache_hits_total 1" in exposition
            assert "pact_serve_cache_misses_total 1" in exposition
            assert 'pact_serve_requests_total{route="/count"} 2' in \
                exposition
        _serve(scenario, tmp_path=tmp_path)

    def test_exact_counter_over_http(self, tmp_path):
        async def scenario(service):
            status, _, document = await _post(
                service, "/count", {**BODY, "counter": "enum"})
            assert status == 200
            assert document["exact"] is True
            assert document["estimate"] == 20
        _serve(scenario, tmp_path=tmp_path)

    def test_unparseable_script_is_an_error_answer_not_a_500(self):
        async def scenario(service):
            status, _, document = await _post(
                service, "/count", {**BODY, "script": "(not smtlib"})
            assert status == 200
            assert document["status"] == "error"
            assert document["detail"]
        _serve(scenario)

    def test_async_mode_polls_to_completion(self, tmp_path):
        async def scenario(service):
            status, _, accepted = await _post(
                service, "/count", {**BODY, "mode": "async"})
            assert status == 202
            assert accepted["job"].startswith("j")
            document = await _await_job(service, accepted["job"])
            assert document["status"] == "done"
            assert document["result"]["estimate"] is not None
            status, _ = await _get(service, "/jobs/nonesuch")
            assert status == 404
        _serve(scenario, tmp_path=tmp_path)


class TestBatchAndPortfolio:
    def test_batch_answers_in_input_order(self, tmp_path):
        async def scenario(service):
            problems = [{"script": SCRIPT, "name": "alpha"},
                        {"script": SCRIPT.replace("#b010100", "#b000111"),
                         "name": "beta"}]
            status, _, document = await _post(
                service, "/batch", {**BODY, "problems": problems})
            assert status == 200
            assert document["solved"] == 2
            assert [entry["problem"] for entry in document["entries"]] \
                == ["alpha", "beta"]
        _serve(scenario, tmp_path=tmp_path)

    def test_portfolio_names_a_winner(self, tmp_path):
        async def scenario(service):
            status, _, document = await _post(
                service, "/portfolio",
                {**BODY, "counters": ["enum", "pact:xor"]})
            assert status == 200
            assert document["status"] == "ok"
            assert document["winner"] in ("enum", "pact:xor")
            assert document["estimate"] is not None
        _serve(scenario, tmp_path=tmp_path)


class TestRoutingAndValidation:
    def test_healthz_and_unknown_routes(self):
        async def scenario(service):
            status, payload = await _get(service, "/healthz")
            assert status == 200
            document = json.loads(payload)
            assert document["status"] == "ok"
            assert document["queue_depth"] == 0
            status, _ = await _get(service, "/nonesuch")
            assert status == 404
        _serve(scenario)

    def test_validation_answers_400(self):
        async def scenario(service):
            status, _, document = await _post(service, "/count", {})
            assert status == 400
            assert "script" in document["error"]
            status, _, document = await _post(
                service, "/batch", {"problems": []})
            assert status == 400
            status, _, document = await _post(
                service, "/count", {**BODY, "timeout": -1})
            assert status == 400
            status, _, payload = await http_request(
                service.host, service.port, "POST", "/count",
                body=b"{torn", headers={"Content-Type":
                                        "application/json"})
            assert status == 400
        _serve(scenario)

    def test_keep_alive_connection_reused(self, tmp_path):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.host, service.port)
            try:
                for _ in range(2):
                    status, _, payload = await http_request(
                        service.host, service.port, "POST", "/count",
                        body=BODY, reader_writer=(reader, writer))
                    assert status == 200
                    assert json.loads(payload)["status"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
        _serve(scenario, tmp_path=tmp_path)


class TestBackPressure:
    def test_queue_watermark_answers_429_with_retry_after(self):
        async def scenario(service):
            _slow_execute(service, 0.4)
            codes, retry_after = [], None
            for _ in range(3):
                status, headers, document = await _post(
                    service, "/count", {**BODY, "mode": "async"})
                codes.append(status)
                if status == 429:
                    retry_after = headers.get("retry-after")
                    assert document["error"].endswith("queue_full")
                else:
                    await asyncio.sleep(0.1)   # let the worker dequeue
            assert codes == [202, 202, 429]
            assert retry_after is not None and int(retry_after) >= 1
            status, text = await _get(service, "/metrics")
            assert ('pact_serve_admission_rejects_total'
                    '{reason="queue_full"} 1') in text.decode()
        _serve(scenario, workers=1, queue_depth=8, high_watermark=1)

    def test_tenant_limit_isolates_noisy_tenant(self):
        async def scenario(service):
            _slow_execute(service, 0.4)
            async def submit(tenant):
                return await _post(service, "/count",
                                   {**BODY, "mode": "async"},
                                   headers={"X-Tenant": tenant})
            status, _, _ = await submit("acme")
            assert status == 202
            status, _, document = await submit("acme")
            assert status == 429
            assert document["error"].endswith("tenant_limit")
            status, _, _ = await submit("beta")   # others unaffected
            assert status == 202
        _serve(scenario, workers=2, queue_depth=8, tenant_limit=1)

    def test_deadline_spent_in_queue_answers_timeout(self):
        async def scenario(service):
            _slow_execute(service, 0.4)
            status, _, _ = await _post(service, "/count",
                                       {**BODY, "mode": "async"})
            assert status == 202
            await asyncio.sleep(0.05)          # worker is now blocked
            status, _, accepted = await _post(
                service, "/count",
                {**BODY, "mode": "async", "timeout": 0.05})
            assert status == 202
            document = await _await_job(service, accepted["job"])
            assert document["result"]["status"] == "timeout"
            assert "queue" in document["result"]["detail"]
        _serve(scenario, workers=1, queue_depth=8)


class TestDrainAndShutdown:
    def test_draining_rejects_and_unhealthies(self):
        async def scenario(service):
            service.draining = True
            service.queue.start_drain()
            status, payload = await _get(service, "/healthz")
            assert status == 503
            assert json.loads(payload)["status"] == "draining"
            status, headers, document = await _post(service, "/count",
                                                    BODY)
            assert status == 503
            assert document["error"].endswith("draining")
            assert "retry-after" in headers
        _serve(scenario)

    def test_shutdown_answers_every_admitted_job(self):
        async def scenario(service):
            def blocked(job):
                service._cancel.wait(timeout=30.0)
                return {"job": job.id, "status": "timeout",
                        "detail": "cancelled by drain"}
            service._execute = blocked
            status, _, accepted = await _post(
                service, "/count", {**BODY, "mode": "async"})
            assert status == 202
            await asyncio.sleep(0.1)
            started = time.monotonic()
            summary = await service.shutdown(drain_timeout=0.2)
            assert time.monotonic() - started < 10.0
            job = service._completed[accepted["job"]]
            assert job.future.done()
            assert job.result["status"] == "timeout"
            assert isinstance(summary, dict)
            assert "counters" in summary and "histograms" in summary
        _serve(scenario, workers=1)

    @pytest.mark.parametrize("jobs,backend,answer", [
        (1, "serial", "timeout"), (2, "process", "cancelled")])
    def test_drain_stops_a_running_portfolio(self, jobs, backend, answer):
        """The drain reaches a racing counter: through the portfolio's
        token in this process (cdm times out), by the pool killing a
        process worker (cdm is cancelled).  Shutdown returns promptly,
        and the job answers with the race's own outcome, not the
        shut-down notice."""
        from repro.benchgen.generators import GENERATORS
        script = GENERATORS["QF_BVFP"](5, width=12).to_smtlib()

        async def scenario(service):
            status, _, accepted = await _post(
                service, "/portfolio",
                {"script": script, "counters": ["cdm"], "seed": 11,
                 "mode": "async"})
            assert status == 202
            running = time.monotonic() + 10.0
            while not service._running and time.monotonic() < running:
                await asyncio.sleep(0.02)
            assert service._running
            started = time.monotonic()
            await service.shutdown(drain_timeout=0.1)
            assert time.monotonic() - started < 3.0
            result = service._completed[accepted["job"]].result
            assert result["status"] == "unsolved"
            assert [entry["status"] for entry in result["entries"]] == [
                answer]
        _serve(scenario, session=Session(jobs=jobs, backend=backend),
               default_timeout=20)

    def test_clean_shutdown_summary_counts_the_traffic(self, tmp_path):
        async def scenario(service):
            await _post(service, "/count", BODY)
            await _post(service, "/count", BODY)
            summary = await service.shutdown()
            jobs = sum(value for key, value
                       in summary["counters"].items()
                       if key.startswith("jobs_total"))
            assert jobs == 2
            assert summary["counters"]["cache_hits_total"] == 1
            latency = next(value for key, value
                           in summary["histograms"].items()
                           if key.startswith("latency_seconds"))
            assert latency["count"] == 2
            assert latency["p99"] >= latency["p50"] >= 0.0
        _serve(scenario, tmp_path=tmp_path)
