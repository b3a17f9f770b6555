"""repro.engine: the parallel execution subsystem.

Everything concurrent lives here, behind two seams:

* :mod:`repro.engine.pool` — :class:`ExecutionPool`, one API over
  serial / thread / process backends with per-task deadlines, graceful
  cancellation and per-worker accounting;
* :mod:`repro.engine.fanout` — counting-iteration fan-out: a
  pact/CDM count's iterations as one picklable chain per process, each
  a ``(method, problem, indices)`` task that runs the counter's own
  method through the serial loop's code, so the parallel median is
  bit-identical to the serial run.  The :class:`repro.api.Problem`
  pickles as its SMT-LIB script.

Batches, portfolios and the evaluation matrix run over the pool through
:class:`repro.api.Session`.  See DESIGN.md ("The engine subsystem") for
the determinism contract.
"""

from repro.engine.pool import BACKENDS, ExecutionPool, Task, TaskResult

__all__ = ["BACKENDS", "ExecutionPool", "Task", "TaskResult"]
