"""repro.serve: the always-on counting service.

The serving layer in front of :class:`repro.api.Session` — the piece
that turns the library into something heavy traffic can hit.  Five
modules:

* :mod:`repro.serve.http` — a minimal asyncio HTTP/1.1 layer (stdlib
  only: request parsing, response framing, keep-alive, a tiny client);
* :mod:`repro.serve.queue` — the bounded priority queue with admission
  control (429 + ``Retry-After`` over the watermark, per-tenant
  in-flight caps, drain mode);
* :mod:`repro.serve.metrics` — counters / gauges / histograms behind
  ``GET /metrics`` and the shutdown summary;
* :mod:`repro.serve.store` — :class:`SqliteStore`, the one persistent
  store: results and ``exact:cc`` component counts in one WAL-mode
  database (merge-on-write, safe under multiple processes);
* :mod:`repro.serve.server` — :class:`CountingService`: routes,
  worker coroutines, cooperative drain.

Run one with ``pact serve`` (see the CLI) or embed it::

    from repro.api import Session
    from repro.serve import CountingService, ServeConfig

    service = CountingService(Session(cache_dir="counts.sqlite"),
                              ServeConfig(port=8991))
    # inside an event loop: await service.start()
"""

from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import AdmissionQueue, AdmissionReject, Job
from repro.serve.server import CountingService, ServeConfig
from repro.serve.store import SqliteStore

__all__ = [
    "AdmissionQueue", "AdmissionReject", "CountingService", "Job",
    "MetricsRegistry", "ServeConfig", "SqliteStore",
]
