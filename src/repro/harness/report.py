"""Plain-text tables, ASCII plots and CSV output for the experiments."""

from __future__ import annotations

import csv
import io
from typing import Sequence

RECORD_FIELDS = ("configuration", "instance", "logic", "solved",
                 "estimate", "known_count", "time_seconds",
                 "solver_calls", "status", "cached", "worker")


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Monospace table with a header rule (the paper-table look)."""
    cells = [[str(h) for h in headers]]
    cells += [[str(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()


def matrix_summary(records, session, elapsed: float, preset=None) -> str:
    """The ``run`` command's summary: per-configuration outcomes, cache
    effectiveness and per-worker timing for a matrix that ``session``
    (a :class:`repro.api.Session`) counted in ``elapsed`` seconds."""
    by_configuration: dict[str, dict] = {}
    for record in records:
        slot = by_configuration.setdefault(
            record.configuration,
            {"slots": 0, "solved": 0, "cached": 0, "time": 0.0})
        slot["slots"] += 1
        slot["solved"] += 1 if record.solved else 0
        slot["cached"] += 1 if record.cached else 0
        slot["time"] += record.time_seconds
    hits = sum(1 for record in records if record.cached)

    title = "Run summary"
    if preset is not None:
        instances = len({record.instance for record in records})
        title += (f" (preset={preset.name}, {instances} instances, "
                  f"{len(records)} slots, wall {elapsed:.2f}s)")
    rows = [[name, stats["slots"], stats["solved"], stats["cached"],
             f"{stats['time']:.2f}"]
            for name, stats in sorted(by_configuration.items())]
    rows.append(["Total", len(records),
                 sum(1 for record in records if record.solved), hits,
                 f"{sum(r.time_seconds for r in records):.2f}"])
    lines = [format_table(
        ["configuration", "slots", "solved", "cached", "cpu_s"],
        rows, title=title)]

    if session.cache is not None and records:
        rate = 100.0 * hits / len(records)
        lines.append(f"cache: {hits} hits, {len(records) - hits} misses "
                     f"({rate:.1f}% hit rate)")

    worker_times = session.pool.worker_times
    if worker_times:
        worker_rows = [[tag, int(count), f"{busy:.2f}"]
                       for tag, (count, busy)
                       in sorted(worker_times.items())]
        lines.append(format_table(["worker", "slots", "busy_s"],
                                  worker_rows, title="Workers"))
    return "\n\n".join(lines)


def records_csv(records) -> str:
    """All record fields as CSV (the ``run`` command's artifact)."""
    rows = [[getattr(record, name) for name in RECORD_FIELDS]
            for record in records]
    return to_csv(RECORD_FIELDS, rows)


def ascii_plot(series: dict[str, list[tuple[float, float]]],
               width: int = 64, height: int = 16,
               x_label: str = "x", y_label: str = "y") -> str:
    """A rough ASCII scatter of several (x, y) series, one glyph each."""
    glyphs = "xo+*#@"
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for glyph, (name, values) in zip(glyphs, sorted(series.items())):
        for x, y in values:
            column = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][column] = glyph
    lines = [f"{y_label} (top={y_max:.3g}, bottom={y_min:.3g})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_min:.3g} .. {x_max:.3g}")
    for glyph, name in zip(glyphs, sorted(series)):
        lines.append(f"   {glyph} = {name}")
    return "\n".join(lines)
