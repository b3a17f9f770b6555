"""The matrix scheduler: (configuration, instance) slots over a pool.

The evaluation matrix is embarrassingly parallel — every slot carries its
own wall-clock budget (``preset.timeout``, the paper's per-slot 3600 s) —
so the scheduler's job is plumbing: serialise each slot into a picklable
:class:`SlotSpec`, consult the fingerprint cache, dispatch the misses
across an :class:`ExecutionPool`, fire live progress callbacks as slots
complete, and reassemble records in the deterministic instance-major
order the serial harness always produced.

All cache reads and writes happen on the orchestrating side (progress
callbacks run in the submitting thread); the cache is a
:class:`repro.serve.store.SqliteStore`, whose connection stays in the
orchestrator — process-backend workers never touch it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.benchgen.spec import Instance
from repro.engine.fanout import parse_cached, preseed_parse_memo
from repro.engine.pool import ExecutionPool, Task, TaskResult
from repro.harness.presets import Preset
from repro.harness.runner import CONFIGURATIONS, RunRecord
from repro.status import Status

__all__ = ["SlotSpec", "MatrixRun", "schedule_matrix", "slot_fingerprint"]


@dataclass(frozen=True)
class SlotSpec:
    """A picklable (configuration, instance, preset) slot description."""

    configuration: str
    name: str
    logic: str
    cluster: str
    known_count: int | None
    difficulty: int
    instance_seed: int
    script: str
    preset: Preset


@dataclass
class MatrixRun:
    """A scheduled matrix outcome plus its execution accounting."""

    records: list[RunRecord]
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0
    # worker tag -> [slots completed, busy seconds]
    worker_times: dict[str, list] = field(default_factory=dict)
    # True when the run was cut short (Ctrl-C / SIGTERM): records holds
    # the completed prefix and the cache was still flushed.
    interrupted: bool = False

    @property
    def solved(self) -> int:
        return sum(1 for record in self.records if record.solved)


def slot_fingerprint(instance: Instance, configuration: str,
                     preset: Preset) -> str:
    """Cache key: formula + projection + everything that changes the
    answer or the budget."""
    from repro.api.problem import fingerprint_terms
    params = {"configuration": configuration, "epsilon": preset.epsilon,
              "delta": preset.delta, "seed": preset.base_seed,
              "timeout": preset.timeout,
              "iterations": preset.iteration_override}
    return fingerprint_terms(instance.assertions, instance.projection,
                             params)


def _run_slot(spec: SlotSpec, budget: float | None = None) -> RunRecord:
    """Worker body: rebuild the instance and run one configuration.

    ``budget`` (the pool's per-task deadline) is informational here — the
    slot's authoritative budget is ``spec.preset.timeout``, enforced
    inside the counters.
    """
    from repro.harness.runner import run_configuration

    assertions, projection = parse_cached(spec.script)
    instance = Instance(
        name=spec.name, logic=spec.logic, cluster=spec.cluster,
        assertions=assertions, projection=projection,
        known_count=spec.known_count, difficulty=spec.difficulty,
        seed=spec.instance_seed)
    return run_configuration(spec.configuration, instance, spec.preset)


def _cached_record(entry: dict, configuration: str,
                   instance: Instance) -> RunRecord:
    status = Status.coerce(entry.get("status", Status.ERROR))
    return RunRecord(
        configuration=configuration, instance=instance.name,
        logic=instance.logic, solved=status is Status.OK,
        estimate=entry.get("estimate"),
        known_count=instance.known_count,
        time_seconds=entry.get("time_seconds", 0.0),
        solver_calls=entry.get("solver_calls", 0),
        status=status, exact=bool(entry.get("exact", False)),
        cached=True, worker="cache")


def _cache_payload(record: RunRecord) -> dict:
    from repro.api.request import result_payload
    return result_payload(record.estimate, record.status,
                          exact=record.exact,
                          time_seconds=record.time_seconds,
                          solver_calls=record.solver_calls)


def schedule_matrix(instances: list[Instance], preset: Preset,
                    configurations=CONFIGURATIONS,
                    pool: ExecutionPool | None = None,
                    cache=None,
                    progress=None) -> MatrixRun:
    """Dispatch the evaluation matrix and reassemble it deterministically.

    ``cache`` is a :class:`repro.serve.store.SqliteStore` (or None).
    ``progress`` receives each :class:`RunRecord` (cache hits included)
    as it completes.  Cacheable outcomes ("ok" and "timeout" — a slot
    that timed out under this budget will time out again) are persisted
    before returning.
    """
    start = time.monotonic()
    if pool is None:
        pool = ExecutionPool(jobs=1)
    slots = [(instance, configuration)
             for instance in instances for configuration in configurations]
    records: list[RunRecord | None] = [None] * len(slots)
    fingerprints: dict[int, str] = {}
    cache_hits = 0
    tasks: list[Task] = []

    for position, (instance, configuration) in enumerate(slots):
        if cache is not None:
            fingerprint = slot_fingerprint(instance, configuration, preset)
            fingerprints[position] = fingerprint
            entry = cache.get(fingerprint)
            if entry is not None:
                record = _cached_record(entry, configuration, instance)
                records[position] = record
                cache_hits += 1
                if progress is not None:
                    progress(record)
                continue
        script = instance.to_smtlib()
        # Pre-seed the parse memo: in-process (and forked) workers reuse
        # the original term objects instead of re-parsing.
        preseed_parse_memo(script, instance.assertions,
                           instance.projection)
        spec = SlotSpec(
            configuration=configuration, name=instance.name,
            logic=instance.logic, cluster=instance.cluster,
            known_count=instance.known_count,
            difficulty=instance.difficulty,
            instance_seed=instance.seed, script=script, preset=preset)
        tasks.append(Task(key=position, fn=_run_slot, args=(spec,),
                          budget=preset.timeout))

    def on_complete(result: TaskResult) -> None:
        position = result.key
        instance, configuration = slots[position]
        if result.ok:
            record = result.value
            record.worker = result.worker
        else:
            status = (Status.TIMEOUT
                      if result.status in (Status.TIMEOUT, Status.BUDGET)
                      else result.status)
            record = RunRecord(
                configuration=configuration, instance=instance.name,
                logic=instance.logic, solved=False, estimate=None,
                known_count=instance.known_count,
                time_seconds=result.time_seconds,
                solver_calls=0, status=status, worker=result.worker)
        records[position] = record
        if cache is not None and record.status in (Status.OK,
                                                   Status.TIMEOUT):
            cache.put(fingerprints[position], _cache_payload(record))
        if progress is not None:
            progress(record)

    interrupted = False
    try:
        pool.run(tasks, progress=on_complete)
    except KeyboardInterrupt:
        # Graceful drain: the pool has already cancelled pending slots;
        # keep every completed record and persist them below instead of
        # dying mid-write.
        interrupted = True
    if cache is not None:
        cache.flush()

    return MatrixRun(
        records=[record for record in records if record is not None],
        elapsed=time.monotonic() - start,
        cache_hits=cache_hits,
        cache_misses=len(tasks) if cache is not None else 0,
        worker_times={tag: list(times)
                      for tag, times in pool.worker_times.items()},
        interrupted=interrupted)
