"""The speed reference: a fixed pure-Python workload timed between
segments of measured work, so that timings can be reported at a fixed
machine speed.

The benchmark runs on a few shared cores, and their speed changes by up
to 2x for minutes at a time (another tenant on the same physical core,
not the VM being descheduled: CPU time and wall time agree).  Such a
slow period moves every timing of a run together, so more operations or
medians within a run cannot remove it.  The reference measures it: a
unit-propagation loop over a fixed random 3-CNF, the same interpreter
work (list indexing, small-int compares, appends) the program's SAT
kernel does, run on each CPU in turn while the measured work is paused.

A timing ``t`` measured in a segment is reported as
``t * NOMINAL_S / r``, where ``r`` is the mean of the reference samples
taken just before and just after that segment: seconds on a machine on
which one reference chunk takes :data:`NOMINAL_S`.  The raw timings are
kept in the run's notes and records.  The reference is part of the
benchmark, not the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time

# One chunk's time on an unloaded 2-vCPU Xeon VM (2.0 GHz).
NOMINAL_S = 0.030
CHUNKS = 3       # per CPU and sample; the sample takes their median
MAX_CPUS = 4
# Measured work between two samples.  A sample takes about 0.2 s, so
# the reference costs about 5% of a run.
SEGMENT_S = 4.0

_VARIABLES = 5000
_CLAUSES = 20000


def _formula():
    rng = random.Random(20241016)
    clauses = []
    for _ in range(_CLAUSES):
        picked = rng.sample(range(1, _VARIABLES + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in picked))
    occurs = [[] for _ in range(2 * _VARIABLES + 1)]
    for index, clause in enumerate(clauses):
        for literal in clause:
            occurs[literal + _VARIABLES].append(index)
    decisions = [v if rng.random() < 0.5 else -v
                 for v in (rng.randrange(1, _VARIABLES + 1)
                           for _ in range(4000))]
    return clauses, occurs, decisions


_CLAUSE_LIST, _OCCURS, _DECISIONS = _formula()


def chunk() -> int:
    """Decide and propagate the fixed decision list, restarting after
    each conflict; returns the number of clause visits (always the
    same)."""
    clauses, occurs, offset = _CLAUSE_LIST, _OCCURS, _VARIABLES
    value = [0] * (_VARIABLES + 1)
    trail = []
    visits = 0
    for decision in _DECISIONS:
        if value[abs(decision)]:
            continue
        queue = [decision]
        conflict = False
        while queue and not conflict:
            literal = queue.pop()
            variable = abs(literal)
            if value[variable]:
                conflict = (value[variable] > 0) != (literal > 0)
                continue
            value[variable] = 1 if literal > 0 else -1
            trail.append(variable)
            for index in occurs[offset - literal]:
                visits += 1
                unassigned = 0
                free = 0
                for other in clauses[index]:
                    assigned = value[abs(other)]
                    if assigned == 0:
                        unassigned += 1
                        free = other
                    elif (assigned > 0) == (other > 0):
                        break
                else:
                    if unassigned == 0:
                        conflict = True
                        break
                    if unassigned == 1:
                        queue.append(free)
        if conflict:
            for variable in trail:
                value[variable] = 0
            trail.clear()
    return visits


def _cpus() -> list:
    try:
        return sorted(os.sched_getaffinity(0))[:MAX_CPUS]
    except (AttributeError, OSError):
        return [None]


def sample() -> float:
    """Seconds per chunk: the median of :data:`CHUNKS` chunks on each
    CPU in turn, averaged over the CPUs.  The garbage collector is off
    meanwhile, so the program's heap does not slow the reference."""
    cpus = _cpus()
    original = os.sched_getaffinity(0) if cpus != [None] else None
    collecting = gc.isenabled()
    gc.disable()
    per_cpu = []
    try:
        for cpu in cpus:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(CHUNKS):
                start = time.perf_counter()
                chunk()
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        if original is not None:
            os.sched_setaffinity(0, original)
        if collecting:
            gc.enable()
    return statistics.fmean(per_cpu)


class Speedometer:
    """Reference samples around segments of measured work: segment ``k``
    lies between samples ``k`` and ``k + 1``."""

    def __init__(self):
        self.samples = [sample()]

    @property
    def segment(self) -> int:
        """The index of the segment now open."""
        return len(self.samples) - 1

    def close(self) -> None:
        """End the open segment (and open the next)."""
        self.samples.append(sample())

    def factor(self, segment: int) -> float:
        """The scale from measured seconds in ``segment`` to seconds at
        the nominal speed."""
        around = (self.samples[segment] + self.samples[segment + 1]) / 2
        return NOMINAL_S / around
