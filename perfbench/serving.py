"""The ``serve-mix`` workload: a ``pact serve`` subprocess and two
closed-loop keep-alive clients posting ``POST /count``."""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import Case, CaseSource, record_of

CLIENTS = 2
REPEAT_WINDOW = 4      # a repeat picks one of the last few fresh problems
REPEAT_PERIOD = 4      # every fourth request is a repeat
WARMUP_REQUESTS = 8
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0

# The server's peak memory is read after this many answers (see
# workloads.RSS_OPERATIONS for why not at the end).
RSS_REQUESTS = 200

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"


class Server:
    """One ``pact serve --store sqlite`` process on an OS-assigned port.

    With ``spans_out`` the server runs under the benchmark's launcher,
    which installs the layer spans and writes them to that file on the
    SIGTERM drain.
    """

    def __init__(self, root: Path, store_dir: Path,
                 spans_out: Path | None = None):
        args = ["serve", "--port", "0", "--store", "sqlite",
                "--cache-dir", str(store_dir), "--jobs", "1"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(LAUNCHER),
                       "--spans-out", str(spans_out), *args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.store_dir = store_dir
        self.output: list[str] = []
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT) or self.address is None:
            self.stop()
            raise RuntimeError("pact serve did not start:\n"
                               + "".join(self.output[-20:]))

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            if line.startswith("c serving on http://"):
                host_port = line.split()[3][len("http://"):]
                host, port = host_port.rsplit(":", 1)
                self.address = (host, int(port))
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the graceful drain), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(STOP_TIMEOUT)
        return self.process.returncode


class Plan:
    """The request sequence both clients draw from, in order: every
    :data:`REPEAT_PERIOD`-th position repeats one of the last
    :data:`REPEAT_WINDOW` fresh problems (possibly still in flight on the
    other client), the others post a fresh problem.  The sequence is fixed by the seed; only which client
    sends which position varies."""

    def __init__(self, fresh, seed: int, limit: int | None = None):
        self.fresh = fresh          # index -> Case
        self.rng = random.Random(seed)
        self.limit = limit
        self.issued: list[Case] = []
        self.position = 0
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            if self.limit is not None and self.position >= self.limit:
                return None
            position = self.position
            self.position += 1
            if position % REPEAT_PERIOD != REPEAT_PERIOD - 1:
                case = self.fresh(len(self.issued))
                self.issued.append(case)
                return position, "fresh", case
            window = self.issued[-REPEAT_WINDOW:]
            return position, "repeat", window[self.rng.randrange(
                len(window))]


def _post(connection, case: Case, counter: str):
    body = json.dumps({"script": case.text, "name": case.name,
                       "counter": counter})
    connection.request("POST", "/count", body,
                       {"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def _client(address, plan: Plan, counter: str, stop_at: float,
            records: list, milestone) -> None:
    connection = http.client.HTTPConnection(*address,
                                            timeout=REQUEST_TIMEOUT)
    try:
        while time.perf_counter() < stop_at:
            item = plan.next()
            if item is None:
                break
            position, kind, case = item
            sent = time.perf_counter()
            try:
                code, data = _post(connection, case, counter)
            except (OSError, http.client.HTTPException) as error:
                record = record_of(
                    position, case, time.perf_counter() - sent,
                    status=f"transport:{type(error).__name__}", kind=kind)
                connection.close()
                connection = http.client.HTTPConnection(
                    *address, timeout=REQUEST_TIMEOUT)
            else:
                latency = time.perf_counter() - sent
                if code != 200:
                    record = record_of(position, case, latency,
                                       status=f"http:{code}", kind=kind)
                else:
                    document = json.loads(data)
                    record = record_of(
                        position, case, latency,
                        status=document.get("status"),
                        estimate=document.get("estimate"),
                        exact=bool(document.get("exact")),
                        solver_calls=document.get("solver_calls", 0),
                        detail=document.get("detail", ""),
                        cached=bool(document.get("cached")),
                        time_seconds=document.get("time_seconds", 0.0),
                        kind=kind)
            records.append(record)
            if len(records) >= RSS_REQUESTS:
                milestone()
    finally:
        connection.close()


def run_clients(address, plan: Plan, counter: str, seconds: float,
                clients: int = CLIENTS, milestone=lambda: None,
                speed=None) -> tuple[list[dict], dict[int, float]]:
    """Closed loop: ``clients`` threads, each sending its next request
    when the previous answer arrives, until ``seconds`` of measured time
    have passed (or the plan runs out).  With ``speed`` (a
    :class:`reference.Speedometer`) the run is cut into segments of about
    :data:`reference.SEGMENT_S`: the clients finish their requests in
    flight, a reference sample is taken, and they go on with the plan.
    ``milestone()`` runs once, when :data:`RSS_REQUESTS` answers are in.
    Returns the records (in plan order, each naming its segment) and the
    measured wall time of each segment, which includes the last
    in-flight answers."""
    from reference import SEGMENT_S

    records: list[dict] = []
    walls: dict[int, float] = {}
    lock = threading.Lock()
    fired = []

    def once() -> None:
        with lock:
            if not fired:
                fired.append(True)
                milestone()

    while sum(walls.values()) < seconds and (
            plan.limit is None or plan.position < plan.limit):
        segment = 0 if speed is None else speed.segment
        length = seconds - sum(walls.values())
        if speed is not None:
            length = min(length, SEGMENT_S)
        start = time.perf_counter()
        first = len(records)
        threads = [threading.Thread(target=_client,
                                    args=(address, plan, counter,
                                          start + length, records, once))
                   for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        walls[segment] = time.perf_counter() - start
        for record in records[first:]:
            record["segment"] = segment
        if speed is None:
            break
        speed.close()
    once()
    records.sort(key=lambda record: record["op"])
    return records, walls


def warm_up(address, source: CaseSource, counter: str, tag: int) -> None:
    """Sequential fresh + repeat requests on problems no measured
    request uses; any wrong answer aborts the run."""
    plan = Plan(lambda index: source.warmup(tag * 100 + index), seed=tag,
                limit=WARMUP_REQUESTS)
    records, _ = run_clients(address, plan, counter, START_TIMEOUT,
                             clients=1)
    bad = [record for record in records if not record["ok"]]
    if bad or len(records) < WARMUP_REQUESTS:
        raise RuntimeError(f"warm-up failed: {bad[:1]}")


def scrape(address) -> dict[str, float]:
    """``GET /metrics`` as a ``{series: value}`` map."""
    connection = http.client.HTTPConnection(*address,
                                            timeout=REQUEST_TIMEOUT)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode()
    finally:
        connection.close()
    series = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name:
            series[name] = float(value)
    return series
