"""Scale presets.

``paper()`` is the faithful configuration (3600 s, epsilon 0.8, delta 0.2,
Algorithm 3 iteration counts) — runnable, but sized for a cluster.
``laptop()`` and ``smoke()`` shrink the suite, the timeout and the number
of median iterations so the whole evaluation fits interactive budgets;
every deviation is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Preset:
    name: str
    instances_per_logic: int
    timeout: float                 # per instance/configuration, seconds
    epsilon: float = 0.8           # paper section IV
    delta: float = 0.2
    iteration_override: int | None = None
    min_count: int = 500
    sat_budget: float | None = 2.0
    base_seed: int = 1

    @classmethod
    def paper(cls) -> "Preset":
        """The paper's parameters (timeout 3600 s, full Algorithm 3
        iteration counts).  Expect multi-hour runtimes in pure Python."""
        return cls(name="paper", instances_per_logic=520, timeout=3600.0,
                   iteration_override=None, min_count=500,
                   sat_budget=5.0)

    @classmethod
    def laptop(cls) -> "Preset":
        """Laptop-scale: the shape experiments in minutes."""
        return cls(name="laptop", instances_per_logic=8, timeout=8.0,
                   iteration_override=5, min_count=100, sat_budget=2.0)

    @classmethod
    def smoke(cls) -> "Preset":
        """CI-scale: seconds per experiment."""
        return cls(name="smoke", instances_per_logic=3, timeout=3.0,
                   iteration_override=3, min_count=50, sat_budget=1.0)

    @classmethod
    def by_name(cls, name: str) -> "Preset":
        presets = {"paper": cls.paper, "laptop": cls.laptop,
                   "smoke": cls.smoke}
        if name not in presets:
            raise ValueError(f"unknown preset {name!r}; "
                             f"pick from {sorted(presets)}")
        return presets[name]()
