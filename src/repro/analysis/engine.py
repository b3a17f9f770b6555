"""The rule engine: file contexts, findings, suppressions, the analyzer.

A :class:`Rule` encodes one repo invariant as a check over a parsed
file; the :class:`Analyzer` runs a catalogue of rules over source trees
and returns :class:`Finding` objects.  Everything the reporters, the
baseline and the CLI need lives on the finding: rule id, severity, the
*module path* (the ``repro/...`` suffix of the file, the stable name a
baseline keys on), line, message and the offending source line.

Scoping: most invariants only hold in specific modules (fingerprints
must be deterministic, ``serve/`` handlers must not block, ...), so a
rule declares ``scope`` — module-path prefixes it applies to — and the
analyzer skips files outside it.  A rule with an empty scope sees every
``repro`` module (rules like the pickle-safety check self-limit by
class name instead).

Suppressions: a finding is dropped when its line — or any line of the
contiguous comment block directly above it — carries
``# pact: allow[rule-id]`` (several ids separate with commas).  The convention is an *argument*, not an
escape hatch: the comment around the marker must say why the invariant
holds anyway, and reviewers treat a bare marker as a finding of its
own.  Grandfathered findings live in a checked-in baseline instead
(:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

__all__ = ["Analyzer", "FileContext", "Finding", "Rule", "Severity",
           "dotted_name", "module_of"]

_ALLOW_RE = re.compile(r"#\s*pact:\s*allow\[([a-z0-9,\s-]+)\]")


class Severity(str, enum.Enum):
    """How bad a violation is; string-valued like :class:`repro.status.
    Status` so reports and JSON keep plain words."""

    ERROR = "error"      # breaks a correctness invariant outright
    WARNING = "warning"  # erodes an invariant (still gates CI)

    __str__ = str.__str__
    __format__ = str.__format__


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str      # the analyzed file as given (display)
    module: str    # the repro-relative module path (baseline key)
    line: int
    message: str
    code: str      # the offending source line, stripped

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": str(self.severity),
                "path": self.path, "module": self.module,
                "line": self.line, "message": self.message,
                "code": self.code}


def module_of(path) -> str:
    """The ``repro/...`` module path of ``path`` ("" when the file is
    not under a ``repro`` package — no module-scoped rule applies).

    The *last* ``repro`` path segment anchors the name, so
    ``src/repro/engine/pool.py``, an absolute path to it, and a
    test's virtual path all normalise identically.
    """
    parts = PurePosixPath(Path(path).as_posix()).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return ""


def dotted_name(node) -> str:
    """``a.b.c`` for an attribute chain rooted at a plain name, else ""
    (the spelling rules match call sites on — calls through aliases or
    locals are out of static reach and out of scope)."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return ".".join(reversed(chain))
    return ""


class FileContext:
    """One parsed file plus everything rules need to report on it."""

    def __init__(self, path, source: str, module: str | None = None):
        self.path = str(path)
        self.source = source
        self.lines = source.splitlines()
        self.module = module_of(path) if module is None else module
        self.tree = ast.parse(source, filename=self.path)
        self._allows: dict[int, frozenset[str]] | None = None

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def _allow_table(self) -> dict[int, frozenset[str]]:
        if self._allows is None:
            table: dict[int, frozenset[str]] = {}
            for number, text in enumerate(self.lines, start=1):
                match = _ALLOW_RE.search(text)
                if match:
                    table[number] = frozenset(
                        rule.strip() for rule in match.group(1).split(",")
                        if rule.strip())
            self._allows = table
        return self._allows

    def allowed(self, rule_id: str, lineno: int) -> bool:
        """True when the finding line — or any line of the contiguous
        comment block directly above it (justifications span lines) —
        carries ``# pact: allow[rule_id]``."""
        table = self._allow_table()
        if rule_id in table.get(lineno, ()):
            return True
        above = lineno - 1
        while above >= 1 and self.line_text(above).startswith("#"):
            if rule_id in table.get(above, ()):
                return True
            above -= 1
        return False

    # ------------------------------------------------------------------
    def finding(self, rule: "Rule", node, message: str) -> Finding:
        line = getattr(node, "lineno", node if isinstance(node, int)
                       else 0)
        return Finding(rule=rule.id, severity=rule.severity,
                       path=self.path, module=self.module, line=line,
                       message=message, code=self.line_text(line))


class Rule:
    """One invariant check.  Subclasses set the class attributes and
    implement :meth:`check`."""

    id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    # Module-path prefixes this rule applies to; () = every repro module.
    scope: tuple[str, ...] = ()
    # Module-path prefixes this rule never applies to (wins over scope).
    exclude: tuple[str, ...] = ()

    def applies_to(self, module: str) -> bool:
        if not module:
            return False
        if any(module.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.scope:
            return True
        return any(module.startswith(prefix) for prefix in self.scope)

    def check(self, context: FileContext):
        """Yield :class:`Finding` objects for ``context``."""
        raise NotImplementedError


class Analyzer:
    """Run a rule catalogue over files and trees."""

    def __init__(self, rules=None):
        if rules is None:
            from repro.analysis.rules import default_rules
            rules = default_rules()
        self.rules = list(rules)

    # ------------------------------------------------------------------
    def analyze_source(self, source: str, path) -> list[Finding]:
        """Findings for one in-memory file.  ``path`` decides which
        module-scoped rules apply (tests pass virtual paths)."""
        context = FileContext(path, source)
        # dict-dedupe: one AST site can match a rule through several
        # node patterns (e.g. an assignment whose value is a compare);
        # report it once.
        findings = {finding: None
                    for rule in self.rules
                    if rule.applies_to(context.module)
                    for finding in rule.check(context)
                    if not context.allowed(finding.rule, finding.line)}
        return sorted(findings, key=lambda finding: finding.sort_key)

    def analyze_paths(self, paths) -> list[Finding]:
        """Findings for files and directory trees (``.py`` files,
        ``__pycache__`` skipped).  A file that does not parse yields a
        single ``parse-error`` finding rather than crashing the run —
        the gate must report, not die, on a broken tree."""
        findings: list[Finding] = []
        for path in self._iter_files(paths):
            try:
                source = path.read_text()
                findings.extend(self.analyze_source(source, path))
            except (SyntaxError, UnicodeDecodeError, OSError) as error:
                findings.append(Finding(
                    rule="parse-error", severity=Severity.ERROR,
                    path=str(path), module=module_of(path),
                    line=getattr(error, "lineno", 0) or 0,
                    message=f"could not analyze: {error}", code=""))
        findings.sort(key=lambda finding: finding.sort_key)
        return findings

    @staticmethod
    def _iter_files(paths):
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                yield from sorted(
                    candidate for candidate in entry.rglob("*.py")
                    if "__pycache__" not in candidate.parts)
            elif entry.suffix == ".py":
                yield entry
