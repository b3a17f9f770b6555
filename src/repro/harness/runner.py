"""Run counters over instance suites — a thin client of :mod:`repro.api`.

The four configurations of the evaluation are pact with each hash family
plus the CDM baseline; each (configuration, instance) pair gets an
independent wall-clock budget, like the paper's one-core/8GB/3600s slots.

The runner owns no dispatch logic: a configuration name (``pact_xor``,
``cdm``) is resolved through the :mod:`repro.api.registry` alias table to
a counter, the instance becomes a :class:`repro.api.Problem`, and the
preset becomes a :class:`repro.api.CountRequest`.  :func:`run_matrix`
counts every slot in one :meth:`repro.api.Session.count_batch`, so slots
share the session's pool and result store, and a slot's cache key is
the one every other count of the same problem and request uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.problem import Problem
from repro.api.request import CountRequest, CountResponse
from repro.api.session import Session
from repro.benchgen.spec import Instance
from repro.errors import ReproError
from repro.harness.presets import Preset
from repro.status import Status

CONFIGURATIONS = ("pact_xor", "pact_prime", "pact_shift", "cdm")


@dataclass
class RunRecord:
    """One (configuration, instance) outcome.

    ``cached`` marks records served from the fingerprint cache (their
    ``time_seconds`` is the original solve time, not the lookup time);
    ``worker`` names the pool slot that produced the record.
    """

    configuration: str
    instance: str
    logic: str
    solved: bool
    estimate: int | None
    known_count: int | None
    time_seconds: float
    solver_calls: int
    status: Status
    exact: bool = False
    cached: bool = False
    worker: str = ""

    def __post_init__(self):
        self.status = Status.coerce(self.status)

    @property
    def relative_error(self) -> float | None:
        from repro.utils.stats import relative_error
        # A known count of 0 is a legitimate ground truth; only a missing
        # one (None) makes the error unmeasurable.
        if not self.solved or self.known_count is None:
            return None
        return relative_error(self.known_count, self.estimate)


def preset_request(configuration: str, preset: Preset) -> CountRequest:
    """The :class:`CountRequest` a preset implies for a configuration."""
    return CountRequest(
        counter=configuration, epsilon=preset.epsilon, delta=preset.delta,
        seed=preset.base_seed, timeout=preset.timeout,
        iteration_override=preset.iteration_override)


def record_of(response: CountResponse, configuration: str,
              instance: Instance) -> RunRecord:
    """Adapt an API response to the harness's record shape."""
    return RunRecord(
        configuration=configuration, instance=instance.name,
        logic=instance.logic, solved=response.solved,
        estimate=response.estimate, known_count=instance.known_count,
        time_seconds=response.time_seconds,
        solver_calls=response.solver_calls, status=response.status,
        exact=response.exact, cached=response.cached,
        worker=response.worker)


def run_configuration(configuration: str, instance: Instance,
                      preset: Preset) -> RunRecord:
    """Run one counter configuration on one instance; a configuration
    the registry does not know becomes an error record."""
    try:
        return run_matrix([instance], preset, (configuration,))[0]
    except ReproError as error:
        return record_of(
            CountResponse(estimate=None, status=Status.ERROR,
                          counter=configuration, problem=instance.name,
                          detail=str(error)),
            configuration, instance)


def run_matrix(instances: list[Instance], preset: Preset,
               configurations=CONFIGURATIONS,
               progress=None, pool=None, cache=None) -> list[RunRecord]:
    """The full evaluation matrix: every configuration on every instance.

    ``pool``/``cache`` are optional engine objects (execution pool,
    :class:`~repro.serve.store.SqliteStore`); the default is a serial
    in-process run.  ``progress`` receives each slot's
    :class:`~repro.api.request.ProgressEvent`, cache hits included.
    Records come back instance-major, in configuration order, on every
    backend.  An interrupt propagates; the slots stored before it are
    served from ``cache`` on the next run.
    """
    problems = [Problem.from_instance(instance) for instance in instances]
    slots = [(instance, problem, configuration)
             for instance, problem in zip(instances, problems)
             for configuration in configurations]
    responses = Session(pool=pool, cache=cache).count_batch(
        [problem for _, problem, _ in slots],
        [preset_request(configuration, preset)
         for _, _, configuration in slots],
        progress=progress)
    return [record_of(response, configuration, instance)
            for (instance, _, configuration), response
            in zip(slots, responses)]
