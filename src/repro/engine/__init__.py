"""repro.engine: the parallel execution subsystem.

Everything concurrent lives here, behind three seams:

* :mod:`repro.engine.pool` — :class:`ExecutionPool`, one API over
  serial / thread / process backends with per-task deadlines, graceful
  cancellation and per-worker accounting;
* :mod:`repro.engine.fanout` — counting-iteration fan-out: a
  pact/CDM count's iterations as one picklable chain per process, run
  through the serial loop's code, so the parallel median is
  bit-identical to the serial run;
* :mod:`repro.engine.scheduler` — the evaluation-matrix scheduler:
  (configuration, instance) slots dispatched across a pool with
  per-slot budgets, live progress and the fingerprint result cache
  (the one store, :class:`repro.serve.store.SqliteStore`).

See DESIGN.md ("The engine subsystem") for the determinism contract and
the cache format.
"""

from repro.engine.fanout import IterationSpec, make_spec, run_iteration
from repro.engine.pool import BACKENDS, ExecutionPool, Task, TaskResult
from repro.engine.scheduler import MatrixRun, SlotSpec, schedule_matrix

__all__ = [
    "BACKENDS", "ExecutionPool", "IterationSpec", "MatrixRun",
    "SlotSpec", "Task", "TaskResult", "make_spec", "run_iteration",
    "schedule_matrix",
]
