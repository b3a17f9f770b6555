"""The workloads, their generated problems and the in-process loop.

Every problem comes from ``repro.benchgen.generators`` under the paper's
section IV selection rule (keep an instance only if its known count is at
least 500), stratified over the six logics in a fixed order, so every
seed yields the same mix: same logics, same widths, same position in the
run.  Each operation starts from SMT-LIB text and pays parse + compile,
as a cold ``pact count FILE`` would.

No two operations of a run share a problem (``serve-mix`` repeats some on
purpose).  When a run needs more problems than the generated base set,
it uses alpha-renamed copies: the base text with every symbol of the
instance renamed (``<name>!x`` becomes ``<name>.v<k>!x``).  A copy has
the base's known count, but a different fingerprint, compile digest and
term set, so none of the program's caches can serve it.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

from oracle import EPSILON, check, relative_error

MIN_KNOWN = 500  # the paper's selection rule (section IV)
LOGICS = ("QF_ABV", "QF_ABVFP", "QF_ABVFPLRA", "QF_BVFP", "QF_BVFPLRA",
          "QF_UFBV")  # every generator, in the order a pass visits them

# Peak memory is read after this many operations: the program keeps
# every term it ever interned, so memory grows with the number of
# distinct problems counted, and a figure read at the end of a timed run
# would grow with throughput.
RSS_OPERATIONS = 24

# Kernel counters recorded per operation, for bit-identity comparisons.
KERNEL_KEYS = ("pact.solves", "pact.decisions", "pact.conflicts",
               "pact.propagations", "cc.decisions", "cc.conflicts",
               "cc.propagations")


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    counter: str
    width: int          # projection bits of every instance
    per_logic: int      # generated base instances per logic
    jobs: int = 1
    backend: str | None = None      # ExecutionPool backend (None: its default)
    iterations: int | None = None   # pact's numIt (None: the default)
    serve: bool = False


# Pact runs fewer iterations than the default 47: a default count takes
# seconds, and a run would hold too few for a steady rate.  One iteration
# is not enough: its estimate alone leaves the PAC band about once in a
# thousand counts, and the median of three practically never does.
# ``pact-xor-j2`` fans its iterations out over a two-thread pool: a
# process pool would run three processes on a two-CPU machine and time
# the scheduler.  ``serve-mix`` uses 14-bit problems, twelve per logic,
# so a run averages over many instances at a modest generation cost.
WORKLOADS = {workload.name: workload for workload in (
    Workload("pact-xor-j2", counter="pact:xor", width=12, per_logic=8,
             jobs=2, backend="thread", iterations=3),
    Workload("serve-mix", counter="exact:cc", width=14, per_logic=12,
             serve=True),
)}


@dataclass(frozen=True)
class Case:
    """One problem: its SMT-LIB text and the oracle's known count."""

    name: str
    text: str
    known: int
    logic: str

    def renamed(self, tag: str) -> "Case":
        name = f"{self.name}.{tag}"
        return Case(name, self.text.replace(f"{self.name}!", f"{name}!"),
                    self.known, self.logic)


def _kept(logic: str, generator_seed: int, width: int) -> Case:
    """The first instance from ``generator_seed`` on that the selection
    rule keeps."""
    from repro.benchgen.generators import GENERATORS
    while True:
        instance = GENERATORS[logic](generator_seed, width=width)
        if instance.known_count >= MIN_KNOWN:
            return Case(instance.name, instance.to_smtlib(),
                        instance.known_count, logic)
        generator_seed += 1


def generate(seed: int, width: int, per_logic: int) -> list[Case]:
    """``per_logic`` instances of each logic, interleaved in logic order."""
    return [_kept(logic, (seed * 1000 + index) * 100, width)
            for index in range(per_logic) for logic in LOGICS]


class CaseSource:
    """Distinct problems in a fixed order: the base set, then its
    alpha-renamed copies ``v1``, ``v2``, ... in the same order."""

    def __init__(self, bases: list[Case]):
        self.bases = bases

    def __getitem__(self, index: int) -> Case:
        base = self.bases[index % len(self.bases)]
        copy = index // len(self.bases)
        return base if copy == 0 else base.renamed(f"v{copy}")

    def warmup(self, index: int) -> Case:
        """A problem no measured operation uses."""
        return self.bases[index % len(self.bases)].renamed(f"w{index}")


def warmup_case(width: int, tag: int) -> Case:
    """The in-process warm-up problem: the same instance on every seed,
    so the set-up time does not vary with the seed's instances."""
    return _kept(LOGICS[0], 0, width).renamed(f"w{tag}")


def record_of(index: int, case: Case, latency: float, *, status: str,
              estimate=None, exact: bool = False, solver_calls: int = 0,
              detail: str = "", cached: bool = False,
              time_seconds: float = 0.0, kind: str = "fresh",
              kernel: dict | None = None) -> dict:
    """One operation's outcome, oracle verdict included."""
    return {"op": index, "problem": case.name, "logic": case.logic,
            "kind": kind, "known": case.known, "estimate": estimate,
            "status": status, "exact": exact,
            "ok": check(case.known, estimate, status, exact),
            "rel_error": relative_error(case.known, estimate),
            "latency": latency, "solver_calls": solver_calls,
            "time_seconds": time_seconds, "cached": cached,
            "detail": detail, "kernel": kernel or {}}


def count_once(session, workload: Workload, case: Case, index: int,
               recorder=None) -> dict:
    """One operation: parse the text, count it, check the answer."""
    from repro.api import Problem
    from repro.sat.kernel import TELEMETRY

    if recorder is not None:
        recorder.set_op(index)
    before = TELEMETRY.snapshot()
    start = time.perf_counter()
    try:
        problem = Problem.from_script(case.text, name=case.name)
        response = session.count(problem, counter=workload.counter,
                                 epsilon=EPSILON,
                                 iteration_override=workload.iterations)
    except Exception:  # noqa: BLE001 - a failed operation, recorded
        latency = time.perf_counter() - start
        return record_of(index, case, latency, status="error",
                         detail=traceback.format_exc(limit=3))
    latency = time.perf_counter() - start
    after = TELEMETRY.snapshot()
    kernel = {key: after.get(key, 0) - before.get(key, 0)
              for key in KERNEL_KEYS}
    return record_of(index, case, latency, status=str(response.status),
                     estimate=response.estimate, exact=response.exact,
                     solver_calls=response.solver_calls,
                     detail=response.detail,
                     time_seconds=response.time_seconds, kernel=kernel)


def run_in_process(session, workload: Workload, source: CaseSource,
                   seconds: float, milestone,
                   speed) -> tuple[list[dict], dict[int, float]]:
    """Closed loop, one caller: count problems back to back, in whole
    passes over the logics, until ``seconds`` of measured time have
    passed.  The run is cut into segments of about
    :data:`reference.SEGMENT_S`, with a reference sample (``speed``, a
    :class:`reference.Speedometer`) between them; each record names its
    segment.  Calls ``milestone()`` once, after :data:`RSS_OPERATIONS`
    operations (or at the end of a shorter run).  Returns the records
    and the measured wall time of each segment."""
    from reference import SEGMENT_S

    records = []
    walls: dict[int, float] = {}
    index = 0
    while index % len(LOGICS) or sum(walls.values()) < seconds:
        segment = speed.segment
        start = time.perf_counter()
        while True:
            record = count_once(session, workload, source[index], index)
            record["segment"] = segment
            records.append(record)
            index += 1
            if index == RSS_OPERATIONS:
                milestone()
            elapsed = time.perf_counter() - start
            if elapsed >= SEGMENT_S or (
                    not index % len(LOGICS)
                    and sum(walls.values()) + elapsed >= seconds):
                break
        walls[segment] = time.perf_counter() - start
        speed.close()
    if index < RSS_OPERATIONS:
        milestone()
    return records, walls
