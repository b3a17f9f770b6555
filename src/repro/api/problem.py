"""The immutable counting problem: one object, three front doors.

A :class:`Problem` owns everything the counters need to know about *what*
is being counted — the assertions, the projection set, a name and a logic
tag — independently of *how* it is counted (that is the
:class:`repro.api.request.CountRequest`).  It can be constructed from

* in-memory terms (:meth:`Problem.from_terms`),
* SMT-LIB text (:meth:`Problem.from_script`),
* a file on disk (:meth:`Problem.from_file`), or
* a generated benchmark instance (:meth:`Problem.from_instance`),

and it owns the two canonical serialisations every subsystem shares: the
deterministic SMT-LIB script (:meth:`Problem.to_script`, its pickled
form) and the cache fingerprint (:meth:`Problem.fingerprint`, what keys
the result cache).  The fingerprint algorithm lives here, next to the
problem it identifies.

A problem crosses a process boundary as itself: it pickles as its script,
name and compile key, and unpickling parses the script, so the receiving
process gets its own interned terms (a default pickle would copy the
terms around the intern table, and the copies would compare unequal to
every term built there).  Serial and thread pools pass the caller's
problem by reference and never print it.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.core.slicing import dedupe_projection
from repro.errors import CounterError
from repro.smt.printer import print_term, write_script
from repro.smt.terms import Term
from repro.utils.canonical import canonical_params_json, fingerprint_digest

# The historical prefix of every fingerprint; keeping it means caches
# written before the API layer existed still hit.
FINGERPRINT_SALT = "pact-cache-v1"


def fingerprint_terms(assertions, projection,
                      params: Mapping | None = None) -> str:
    """Canonical fingerprint of (formula, projection, parameters).

    The SHA-256 of the printed assertions, the projection variables (name
    and sort, in order) and a canonical JSON of ``params`` — anything
    that changes the answer or the budget.  Printing is deterministic and
    process-independent, so fingerprints are stable across runs and
    machines.
    """
    pieces = [FINGERPRINT_SALT]
    pieces.extend(print_term(assertion) for assertion in assertions)
    pieces.append("|projection|")
    pieces.extend(f"{var.name}:{var.sort!r}" for var in projection)
    if params:
        pieces.append(canonical_params_json(params))
    return fingerprint_digest(pieces)


@dataclass(frozen=True)
class Problem:
    """An immutable projected-counting problem."""

    assertions: tuple[Term, ...]
    projection: tuple[Term, ...]
    name: str = "problem"
    logic: str = "ALL"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_terms(cls, assertions, projection, name: str = "problem",
                   logic: str = "ALL") -> "Problem":
        """Build from in-memory terms (a single assertion is accepted)."""
        if isinstance(assertions, Term):
            assertions = [assertions]
        if not projection:
            raise CounterError(
                "no projection set: pass the variables to project onto")
        # Same guard as pact_count: a duplicated projection variable would
        # double-count its bits and break pairwise independence.
        return cls(assertions=tuple(assertions),
                   projection=tuple(dedupe_projection(list(projection))),
                   name=name, logic=logic)

    @classmethod
    def from_script(cls, text: str, name: str = "script",
                    project: list[str] | None = None) -> "Problem":
        """Parse SMT-LIB text; the projection set comes from
        ``(set-info :projected-vars (...))`` unless ``project`` (a list of
        declared variable names) overrides it."""
        from repro.smt.parser import parse_script
        script = parse_script(text)
        projection = script.projection
        if project:
            projection = []
            for raw in project:
                if raw not in script.declarations:
                    raise CounterError(
                        f"projected variable {raw!r} undeclared")
                projection.append(script.declarations[raw])
        if not projection:
            raise CounterError(
                "no projection set: pass --project or add "
                "(set-info :projected-vars (...)) to the script")
        return cls(assertions=tuple(script.assertions),
                   projection=tuple(dedupe_projection(list(projection))),
                   name=name, logic=script.logic or "ALL")

    @classmethod
    def from_file(cls, path, project: list[str] | None = None) -> "Problem":
        """Read and parse an ``.smt2`` file; the name is the file stem."""
        path = pathlib.Path(path)
        return cls.from_script(path.read_text(), name=path.stem,
                               project=project)

    @classmethod
    def from_instance(cls, instance) -> "Problem":
        """Adapt a :class:`repro.benchgen.spec.Instance`."""
        return cls(assertions=tuple(instance.assertions),
                   projection=tuple(instance.projection),
                   name=instance.name, logic=instance.logic)

    # ------------------------------------------------------------------
    # canonical serialisations
    # ------------------------------------------------------------------
    @cached_property
    def script(self) -> str:
        """The deterministic SMT-LIB serialisation (cached)."""
        return write_script(list(self.assertions), logic=self.logic,
                            projection=list(self.projection))

    def to_script(self) -> str:
        return self.script

    def fingerprint(self, params: Mapping | None = None) -> str:
        """The cache fingerprint under ``params`` (see
        :func:`fingerprint_terms`)."""
        return fingerprint_terms(self.assertions, self.projection, params)

    @cached_property
    def compile_key(self) -> str:
        """The canonical compile digest (cached — serialising the
        formula once per Problem, not once per count).  One recipe for
        every layer: :func:`repro.compile.canonical_digest`."""
        from repro.compile import canonical_digest
        return canonical_digest(self.assertions, self.projection)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self):
        """The problem's :class:`repro.compile.CompiledProblem`.

        Compiled at most once per problem per process: the per-process
        compile memo is keyed by the canonical script digest — the
        *logic-free* serialisation the counters themselves hash
        (:func:`repro.compile.canonical_digest`) — so sessions, fan-out
        workers, the counters and the CLI all share one artifact.
        """
        from repro.compile import compiled_for
        return compiled_for(list(self.assertions), list(self.projection),
                            digest=self.compile_key)

    # ------------------------------------------------------------------
    def projection_bits(self) -> int:
        return sum(var.sort.width for var in self.projection)

    def __reduce__(self):
        return (_unpickle, (self.script, self.name, self.compile_key))

    def __repr__(self) -> str:
        return (f"Problem({self.name}, {self.logic}, "
                f"{len(self.assertions)} assertions, "
                f"|S|={self.projection_bits()} bits)")


def _unpickle(script: str, name: str, compile_key: str) -> Problem:
    """Rebuild a pickled :class:`Problem` by parsing its script.

    The logic comes back from ``(set-logic ...)`` and the projection
    from ``:projected-vars`` — an empty one too, which
    :meth:`Problem.from_script` rejects, so the problem is built
    directly.  The sender's compile key keys this process's compile
    memo.
    """
    from repro.smt.parser import parse_script
    parsed = parse_script(script)
    problem = Problem(assertions=tuple(parsed.assertions),
                      projection=tuple(parsed.projection), name=name,
                      logic=parsed.logic or "ALL")
    vars(problem)["compile_key"] = compile_key
    return problem
