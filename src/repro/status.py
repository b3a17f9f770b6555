"""The shared outcome vocabulary for counters, tasks, records and caches.

Before :class:`Status` existed, ``"ok"``/``"timeout"``/``"error"`` string
literals were scattered across ``core/result.py``, ``engine/pool.py``,
the result cache and ``harness/runner.py``.  The enum is
**string-valued** so every old surface keeps working:

* ``Status.OK == "ok"`` is true (comparisons against legacy literals);
* ``json.dumps`` emits the plain string, so cache files and CSV artifacts
  keep the old format, and cache files written *by* the old format still
  load (:meth:`Status.coerce` turns their strings back into members);
* ``str()``/``format()`` yield ``"ok"``, not ``"Status.OK"``, so reports
  and CLI output are unchanged.
"""

from __future__ import annotations

import enum


class Status(str, enum.Enum):
    """Outcome of a counting run, pool task or cached entry."""

    OK = "ok"                # estimate valid
    TIMEOUT = "timeout"      # wall-clock deadline exceeded
    BUDGET = "budget"        # non-time resource budget exceeded
    ERROR = "error"          # the counter raised
    CANCELLED = "cancelled"  # cooperatively cancelled (Ctrl-C, portfolio)
    LIMIT = "limit"          # enumeration limit exceeded

    # A plain (str, Enum) mix-in would render as "Status.OK" under
    # Python 3.11's format(); force the value through everywhere.
    __str__ = str.__str__
    __format__ = str.__format__

    @classmethod
    def coerce(cls, value: "Status | str") -> "Status":
        """Normalise a legacy string (or member) into a member.

        Unrecognised strings map to :attr:`ERROR` rather than raising:
        they can only come from foreign or corrupt cache files, which are
        never allowed to be fatal.
        """
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            return cls.ERROR
