"""Eager bit-blasting of bit-vector/Boolean terms to CNF.

``CnfBuilder`` provides Tseitin gates over a :class:`repro.sat.CdclDriver`
with structural hashing; ``circuits`` contains the word-level circuits
(ripple adders, shift-add multipliers, barrel shifters, comparators);
``BitBlaster`` walks the term DAG and memoises per solver frame, so hash
constraints blasted inside a pact cell vanish on frame pop.
"""

from repro.smt.bitblast.cnf import CnfBuilder
from repro.smt.bitblast.blaster import BitBlaster

__all__ = ["BitBlaster", "CnfBuilder"]
