"""repro.engine: the parallel execution subsystem.

Everything concurrent lives here, behind two seams:

* :mod:`repro.engine.pool` — :class:`ExecutionPool`, one API over
  serial / thread / process backends with per-task deadlines, graceful
  cancellation and per-worker accounting;
* :mod:`repro.engine.fanout` — counting-iteration fan-out: a
  pact/CDM count's iterations as one picklable chain per process, run
  through the serial loop's code, so the parallel median is
  bit-identical to the serial run.

Batches, portfolios and the evaluation matrix run over the pool through
:class:`repro.api.Session`.  See DESIGN.md ("The engine subsystem") for
the determinism contract.
"""

from repro.engine.fanout import IterationSpec, make_spec, run_iteration
from repro.engine.pool import BACKENDS, ExecutionPool, Task, TaskResult

__all__ = [
    "BACKENDS", "ExecutionPool", "IterationSpec", "Task", "TaskResult",
    "make_spec", "run_iteration",
]
