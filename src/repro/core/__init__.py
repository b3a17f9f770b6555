"""pact: hashing-based approximate projected counting for hybrid SMT.

This package is the paper's primary contribution:

* :mod:`repro.core.constants` — Algorithm 3 (GetConstants);
* :mod:`repro.core.hashes` — the three hash families of section III-A
  (H_xor, H_prime, H_shift) with bit-vector slicing;
* :mod:`repro.core.cells` — SaturatingCounter (section III-B);
* :mod:`repro.core.search` — NextIndex galloping search (section III-C);
* :mod:`repro.core.ladder` — the incremental hash ladder (section
  III-F): one nested solver frame per hash index, so boundary probes
  re-assert only deltas;
* :mod:`repro.core.pact` — Algorithm 1 (the main loop) and Algorithm 2
  (FixLastHash);
* :mod:`repro.core.enumerate` — the exact enumeration counter ``enum``
  used for the accuracy study (section IV-B);
* :mod:`repro.core.cdm` — the Chistikov–Dimitrova–Majumdar baseline.

Quick start::

    from repro import count_projected
    from repro.smt import bv_var, bv_ult, bv_val

    x = bv_var("x", 8)
    result = count_projected([bv_ult(x, bv_val(100, 8))], [x],
                             epsilon=0.8, delta=0.2, family="xor", seed=1)
    print(result.estimate)   # ~100 with (0.8, 0.2) guarantees
"""

from repro.core.cdm import cdm_count
from repro.core.config import PactConfig
from repro.core.constants import get_constants
from repro.core.enumerate import exact_count
from repro.core.ladder import HashLadder
from repro.core.pact import count_projected, pact_count
from repro.core.result import CountResult

__all__ = [
    "CountResult", "HashLadder", "PactConfig", "cdm_count",
    "count_projected", "exact_count", "get_constants", "pact_count",
]
