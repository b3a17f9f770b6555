"""A CDCL SAT solver with native XOR-constraint reasoning.

This package is the bottom of the reproduction stack.  The paper's pact runs
on CVC5, whose SAT core (and, for XOR hash constraints, CryptoMiniSat-style
Gauss-Jordan reasoning) does the heavy lifting; here the equivalent engine
is implemented in pure Python, organised as one propagation kernel with
pluggable search drivers (:mod:`repro.sat.kernel`):

* :class:`repro.sat.kernel.PropagationKernel` — the shared substrate:
  clause/XOR storage, two-watched-literal and occurrence indexes, the
  assignment trail, first-UIP conflict analysis and push/pop frames.
* :class:`repro.sat.kernel.CdclDriver` — the CDCL search driver: VSIDS branching, phase saving, Luby restarts
  and LBD-ranked clause-database reduction over the kernel.
* :class:`repro.sat.kernel.ComponentDriver` — the component-splitting DPLL
  driver the exact counter searches with: counter-convention assignment
  state over a :class:`repro.sat.kernel.ClauseDB`, reason tracking and
  in-component conflict learning.
* :class:`repro.sat.xor_engine.XorEngine` — parity constraints propagated
  natively over bigint bitmasks, so an XOR hash constraint costs O(1) rows
  instead of an exponential CNF expansion; dense root systems are
  Gauss–Jordan-reduced at solve time.
* :mod:`repro.sat.dimacs` — DIMACS CNF reading/writing for debugging and
  interop.

Solver frames (:meth:`CdclDriver.push` / :meth:`CdclDriver.pop`) give the
incremental discipline pact needs: hash constraints and blocking clauses
live inside a frame and disappear when the cell count finishes.
"""

from repro.sat.kernel import (
    TELEMETRY, CdclDriver, ClauseDB, Component, ComponentDriver,
    KernelTelemetry, PropagationKernel, SatSnapshot, build_driver,
)
from repro.sat.types import SAT, UNKNOWN, UNSAT

__all__ = [
    "SAT", "UNSAT", "UNKNOWN", "CdclDriver", "ClauseDB", "Component", "ComponentDriver",
    "KernelTelemetry", "PropagationKernel", "SatSnapshot",
    "TELEMETRY", "build_driver",
]
