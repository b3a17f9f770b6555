"""Wall-clock deadlines threaded through solvers and counters.

The paper's evaluation gives every solver/instance pair a 3600 s timeout;
our harness does the same at laptop scale.  A :class:`Deadline` is created
once per run and passed down; leaf loops call :meth:`check` (cheap) or
:meth:`expired` at natural poll points.
"""

from __future__ import annotations

import time

from repro.errors import SolverTimeoutError


class Deadline:
    """A monotonic-clock deadline.  ``Deadline(None)`` never expires."""

    __slots__ = ("_limit",)

    def __init__(self, seconds: float | None):
        if seconds is None:
            self._limit = None
        else:
            if seconds < 0:
                raise ValueError("deadline must be non-negative")
            self._limit = time.monotonic() + seconds

    @classmethod
    def unlimited(cls) -> "Deadline":
        return cls(None)

    def expired(self) -> bool:
        return self._limit is not None and time.monotonic() >= self._limit

    def check(self) -> None:
        """Raise :class:`SolverTimeoutError` if the deadline has passed."""
        if self.expired():
            raise SolverTimeoutError("wall-clock deadline exceeded")

    def remaining(self) -> float:
        """Seconds remaining (infinity if unlimited, 0.0 floor)."""
        if self._limit is None:
            return float("inf")
        return max(0.0, self._limit - time.monotonic())

    def __repr__(self) -> str:
        if self._limit is None:
            return "Deadline(unlimited)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CooperativeDeadline(Deadline):
    """A deadline that also expires when a shared cancel token is set.

    The portfolio runner hands every racing counter one of these with a
    shared :class:`threading.Event`: when the first counter solves, the
    event is set and the losers' next ``check()`` raises — cancellation
    stays cooperative, exactly like the wall-clock budget (nothing in
    this codebase preempts a worker).
    """

    __slots__ = ("_token",)

    def __init__(self, seconds: float | None, token):
        super().__init__(seconds)
        self._token = token

    def expired(self) -> bool:
        return self._token.is_set() or super().expired()

    def remaining(self) -> float:
        if self._token.is_set():
            return 0.0
        return super().remaining()
