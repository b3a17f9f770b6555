"""repro.count_exact — the projected component-caching exact counter.

``exact:cc`` turns exact counting from one CDCL solve per projected
model (the ``enum`` counter) into DPLL-style search over the compiled
clause DB: connected-component decomposition, per-component count
caching under a canonical signature, projection-aware branching, and an
eager LRA theory closure so hybrid logics count exactly too.  See
DESIGN.md section 6.
"""

from repro.count_exact.closure import (
    ClosureStats, MAX_CLOSURE_ATOMS, lra_closure,
)
from repro.count_exact.counter import (
    CcStats, cc_count, count_compiled, count_snapshot,
)
from repro.count_exact.signature import (
    component_signature, projection_occurrences,
)

__all__ = [
    "CcStats", "ClosureStats", "MAX_CLOSURE_ATOMS",
    "cc_count", "component_signature", "count_compiled",
    "count_snapshot", "lra_closure", "projection_occurrences",
]
