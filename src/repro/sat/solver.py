"""The CDCL SAT solver — the kernel's CDCL driver under its public name.

This is the reproduction's stand-in for the SAT core inside CVC5 /
CryptoMiniSat.  Since the kernel unification the machinery lives in
:mod:`repro.sat.kernel`: :class:`repro.sat.kernel.PropagationKernel`
owns the clause/XOR storage, watch indexes, assignment trail, conflict
analysis and push/pop frames, and :class:`repro.sat.kernel.CdclDriver`
adds the CDCL search policy.  :class:`SatSolver` is that driver — the
public API (``solve``/``push``/``pop``/``snapshot``/``clone_from`` and
the construction surface) and its behaviour are unchanged.

Feature set (all standard, all load-bearing for pact's workload of
repeated incremental solves):

* two-watched-literal unit propagation with blocking literals;
* first-UIP conflict analysis with clause minimisation (self-subsumption
  against reason clauses);
* VSIDS variable activities with a lazy max-heap, phase saving;
  only variables some clause or XOR row mentions are decided;
* projected-model enumeration: projection variables are decided first,
  and a model is blocked by its projection decisions, with the search
  resumed at the asserting level (``set_projection`` /
  ``block_projection``);
* Luby-sequence restarts;
* LBD-ranked learnt-clause database reduction (glue clauses kept);
* native XOR rows via :class:`repro.sat.xor_engine.XorEngine`, with
  Gauss–Jordan elimination of the root-born rows at solve time (dense
  XOR systems collapse to their reduced basis; rows living inside
  frames — pact's hash constraints — are never touched);
* push/pop frames: clauses, XOR rows, variables and level-0 implications
  added after a :meth:`SatSolver.push` vanish on :meth:`SatSolver.pop`;
* safe learnt-clause retention across :meth:`SatSolver.pop`
  (``retain_learnts = False`` turns it off: a test reference only);
* wall-clock deadlines and conflict budgets.

Literals are DIMACS-style signed ints (see :mod:`repro.sat.types`).
"""

from __future__ import annotations

from repro.sat.kernel import CdclDriver, PropagationKernel, SatSnapshot

__all__ = ["PropagationKernel", "SatSnapshot", "SatSolver"]


class SatSolver(CdclDriver):
    """Incremental CDCL solver with native XOR support.

    The canonical CDCL driver over the shared propagation kernel; see
    the module docstring and :mod:`repro.sat.kernel`.
    """
