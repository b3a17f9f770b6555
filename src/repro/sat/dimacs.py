"""DIMACS CNF reading and writing.

Supports the standard ``p cnf`` header plus two extensions:

* the CryptoMiniSat ``x`` row for XOR constraints (a line ``x1 2 -3 0``
  asserts ``x1 ^ x2 ^ x3 = 0`` i.e. the XOR of the listed literals is
  true; a leading negation flips the required parity, matching
  CryptoMiniSat semantics);
* the model-counting ``c p show <vars> 0`` line (GANAK / ApproxMC
  convention) naming the projection variables an external counter must
  project onto.  Several show lines may appear; their variable lists
  concatenate.

**Header convention** (load-bearing, so it is pinned here and by the
round-trip tests): the ``p cnf V C`` constraint count ``C`` counts CNF
clauses **and** XOR rows — every constraint line below the header,
matching what this module has always emitted and what CryptoMiniSat
accepts.  Parsers should treat ``C`` as advisory (ours does): a file
whose producer counted only CNF clauses still loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TextIO

from repro.errors import ParseError
from repro.sat.kernel import CdclDriver


@dataclass
class DimacsDocument:
    """A parsed DIMACS file: variables, clauses, XOR rows and the
    model-counting projection (``c p show``) variables, in file order."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    xors: list[tuple[list[int], bool]] = field(default_factory=list)
    show: list[int] = field(default_factory=list)


def parse_dimacs_document(text: str) -> DimacsDocument:
    """Parse DIMACS text into a :class:`DimacsDocument`.

    Accepts ``c p show <vars> 0`` projection lines and ``x`` XOR rows;
    the header's constraint count is advisory and not enforced (see the
    module docstring for the convention this module *writes*).
    """
    document = DimacsDocument()
    declared = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split()
            if fields[:3] == ["c", "p", "show"]:
                try:
                    variables = [int(token) for token in fields[3:]]
                except ValueError as exc:
                    raise ParseError(f"bad show line {line!r}",
                                     line_no) from exc
                if not variables or variables[-1] != 0:
                    raise ParseError("show line not terminated by 0",
                                     line_no)
                for var in variables[:-1]:
                    if var <= 0:
                        raise ParseError(
                            f"show variable {var} must be positive",
                            line_no)
                document.show.extend(variables[:-1])
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"bad problem line: {line!r}", line_no)
            document.num_vars = int(fields[2])
            declared = True
            continue
        is_xor = line.startswith("x")
        if is_xor:
            line = line[1:]
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"bad literal in {line!r}", line_no) from exc
        if not lits or lits[-1] != 0:
            raise ParseError("clause not terminated by 0", line_no)
        lits = lits[:-1]
        if not declared:
            raise ParseError("clause before problem line", line_no)
        for lit in lits:
            if abs(lit) > document.num_vars:
                raise ParseError(f"literal {lit} out of range", line_no)
        if is_xor:
            # CryptoMiniSat: "x" row lists literals whose XOR must be true;
            # each negative literal flips the parity.
            rhs = True
            variables = []
            for lit in lits:
                if lit < 0:
                    rhs = not rhs
                variables.append(abs(lit))
            document.xors.append((variables, rhs))
        else:
            document.clauses.append(lits)
    for var in document.show:
        if var > document.num_vars:
            raise ParseError(f"show variable {var} out of range", 0)
    return document


def parse_dimacs(text: str) -> tuple[int, list[list[int]],
                                     list[tuple[list[int], bool]]]:
    """Parse DIMACS text.

    Returns ``(num_vars, clauses, xors)`` where each xor is
    ``(variables, rhs)``.  Use :func:`parse_dimacs_document` to also
    get the ``c p show`` projection variables.
    """
    document = parse_dimacs_document(text)
    return document.num_vars, document.clauses, document.xors


def load_solver(text: str) -> CdclDriver:
    """Build a :class:`~repro.sat.kernel.CdclDriver` from DIMACS text."""
    num_vars, clauses, xors = parse_dimacs(text)
    solver = CdclDriver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    for variables, rhs in xors:
        solver.add_xor(variables, rhs)
    return solver


# One `c p show` line is kept short enough for line-based tools.
_SHOW_CHUNK = 20


def write_dimacs(num_vars: int, clauses: Iterable[Iterable[int]],
                 xors: Iterable[tuple[list[int], bool]] = (),
                 show: Iterable[int] | None = None,
                 comments: Iterable[str] = (),
                 out: TextIO | None = None) -> str:
    """Serialise to DIMACS; returns the text (and writes to ``out`` if
    given).

    The ``p cnf`` header counts CNF clauses *plus* XOR rows (the module
    convention).  ``show`` emits ``c p show <vars> 0`` projection lines
    (chunked) right after the header so external model counters project
    correctly; ``comments`` become leading ``c`` lines.
    """
    clause_list = [list(c) for c in clauses]
    xor_list = list(xors)
    lines = [f"c {comment}" for comment in comments]
    lines.append(f"p cnf {num_vars} {len(clause_list) + len(xor_list)}")
    if show is not None:
        show_list = list(show)
        for index in range(0, len(show_list), _SHOW_CHUNK):
            chunk = show_list[index:index + _SHOW_CHUNK]
            lines.append("c p show "
                         + " ".join(str(var) for var in chunk) + " 0")
        if not show_list:
            lines.append("c p show 0")
    for clause in clause_list:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    for variables, rhs in xor_list:
        lits = list(variables)
        if not rhs and lits:
            lits[0] = -lits[0]
        lines.append("x" + " ".join(str(lit) for lit in lits) + " 0")
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write(text)
    return text
