"""Configuration for the pact counter."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CounterError

FAMILIES = ("xor", "prime", "shift")


@dataclass(frozen=True)
class PactConfig:
    """Parameters of a pact run.

    ``epsilon``/``delta`` are the PAC guarantee parameters; ``family``
    picks the hash family (section III-A); ``seed`` makes the run
    reproducible.  ``iteration_override`` (if set) replaces the
    numIt from Algorithm 3 — the harness uses it for scaled-down runs and
    EXPERIMENTS.md documents every such deviation.
    """

    epsilon: float = 0.8
    delta: float = 0.2
    family: str = "xor"
    seed: int = 1
    timeout: float | None = None
    iteration_override: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise CounterError("epsilon must be positive")
        if not 0 < self.delta < 1:
            raise CounterError("delta must be in (0, 1)")
        if self.family not in FAMILIES:
            raise CounterError(
                f"unknown hash family {self.family!r}; pick from {FAMILIES}")
        if self.iteration_override is not None and self.iteration_override < 1:
            raise CounterError("iteration_override must be >= 1")
