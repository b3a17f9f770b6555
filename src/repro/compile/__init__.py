"""repro.compile — the staged Problem->CNF compile pipeline.

Compile once, count everywhere: a :class:`CompiledProblem` is the
immutable product of preprocess -> bitblast -> (count-preserving)
simplify, shared through the per-process compile memo across
iterations, workers and portfolio arms.  See DESIGN.md section 5.
"""

from repro.compile.artifact import CompiledProblem, CompileStats
from repro.compile.memo import (
    canonical_digest, compile_counters, compiled_for, reset_compile_memo,
)
from repro.compile.pipeline import compile_problem
from repro.compile.simplify import STAGES

__all__ = [
    "STAGES", "CompileStats", "CompiledProblem", "canonical_digest",
    "compile_counters", "compile_problem", "compiled_for",
    "reset_compile_memo",
]
