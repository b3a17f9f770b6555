"""The incremental hash ladder (section III-F's incremental solving).

Both counters probe ``count_at(i)`` — the saturating cell count after
``i`` hash constraints — at a sequence of indices chosen by the galloping
search.  The naive implementation re-asserts hashes ``1..i`` into a fresh
solver frame for every probe, so a search touching k indices pays
O(k * boundary) hash assertions and the solver relearns the prefix from
scratch each time.

:class:`HashLadder` keeps the hash prefix asserted as **one nested solver
frame per hash index**: frame j holds exactly hash j.  Moving the probe
from index i to index j then pushes or pops only the ``|i - j|`` delta,
and — together with the SAT core's learnt-clause retention across
``pop()`` — everything the solver learnt about the surviving prefix
stays learnt.

Determinism: the ladder changes *when* a hash is asserted, never *what*
is asserted — hash index j is always drawn from its own seed stream and
always sits in frame j — so cell counts, boundaries and estimates are
bit-identical to re-asserting the prefix on a fresh solver per probe.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CounterError


class HashLadder:
    """A stack of nested solver frames, one per asserted hash index.

    ``assert_hash(solver, index)`` asserts hash number ``index`` (1-based)
    into the solver's current frame; the ladder guarantees it is called
    exactly once per open rung, in ascending order, inside a frame of its
    own.  The solver must not hold user frames above the ladder while
    :meth:`set_depth` is called (callers may push/pop scratch frames on
    top between calls, as FixLastHash does, provided they unwind them).
    """

    def __init__(self, solver, assert_hash: Callable[[object, int], None]):
        self._solver = solver
        self._assert_hash = assert_hash
        self._depth = 0

    @property
    def depth(self) -> int:
        """Number of hash constraints currently asserted."""
        return self._depth

    def set_depth(self, index: int) -> None:
        """Move the ladder to exactly ``index`` asserted hashes.

        Pops or pushes the ``|depth - index|`` delta of frames; hashes
        below the meeting point are untouched (and the solver keeps every
        learnt clause that only depends on them).
        """
        if index < 0:
            raise CounterError(f"negative hash-ladder depth {index}")
        while self._depth > index:
            self._solver.pop()
            self._depth -= 1
        while self._depth < index:
            self._solver.push()
            self._depth += 1
            self._assert_hash(self._solver, self._depth)

    def close(self) -> None:
        """Pop every ladder frame, restoring the solver's root state."""
        self.set_depth(0)

