"""End-to-end and per-layer metrics from one run's records and spans.

Per-layer seconds and counts are per operation unless the name says
otherwise (a ratio, a rate, a share).
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

# name -> unit, in BENCHMARK.json's order (the print order).
_DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"]
              for metric in _DECLARED["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"]
             for metric in _DECLARED["per_layer"]}

# Metrics that are inclusive span time of one layer, per operation.  The
# equiv, probe and bve stages each run unit propagation on their own
# result; that nested time belongs to the stage, and ``compile.units_s``
# is only the units stage itself (see ``per_layer``), so the six stage
# figures partition ``run_stages``.
_INCLUSIVE = {
    "smt.parse_s": "smt.parse",
    "smt.preprocess_s": "smt.preprocess",
    "smt.bitblast_s": "smt.bitblast",
    "smt.check_s": "smt.check",
    "smt.lra_check_s": "smt.lra_check",
    "sat.solve_s": "sat.solve",
    "core.hash_s": "core.hash",
    "compile.total_s": "compile.total",
    "compile.equiv_s": "compile.equiv",
    "compile.probe_s": "compile.probe",
    "compile.bve_s": "compile.bve",
    "compile.bce_s": "compile.bce",
    "compile.support_s": "compile.support",
    "count_exact.closure_s": "count_exact.closure",
    "count_exact.presolve_s": "count_exact.presolve",
    "engine.pool.run_s": "engine.pool.run",
    "serve.store_get_s": "serve.store_get",
    "serve.store_put_s": "serve.store_put",
    "serve.store_flush_s": "serve.store_flush",
}

# (minuend layer, subtracted child layer): the named layer's time minus
# the time of that child inside it.
_SELF = {
    "api.session_self_s": ("api.session", "api.counter"),
    "core.cells_self_s": ("core.cells", "smt.check"),
    "count_exact.search_s": ("count_exact.snapshot", "count_exact.presolve"),
}

_DETAIL_FIELD = re.compile(r"\b(cache_hits|cache_entries)=(\d+)")


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven), and which one it is."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - 11 if count > 10 else count - 1
    return ordered[rank], (f"p{100.0 * (rank + 1) / count:.1f} of {count} "
                           f"samples, {count - rank - 1} beyond it")


def end_to_end(records: list[dict], walls: dict[int, float],
               factors: dict[int, float], setup_s: float,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the notes printed beside them.

    ``walls`` is the measured wall time of each segment of the run, and
    ``factors`` the scale from measured to reference-speed seconds in
    each (:mod:`reference`); every record names its segment.  Timings
    are reported at the reference speed, and the notes give them as
    measured.  ``ops_per_s`` is correct operations over the whole wall
    time, so a failed operation costs time and counts for nothing.
    """
    correct = sum(1 for record in records if record["ok"])
    measured = [record["latency"] for record in records]
    latencies = [record["latency"] * factors[record["segment"]]
                 for record in records]
    wall = sum(walls[segment] * factors[segment] for segment in walls)
    raw_wall = sum(walls.values())
    tail_value, tail_note = tail(latencies)
    values = {
        "ops_per_s": correct / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "latency_tail_s": tail_note,
        "fail_frac": (len(records) - correct) / len(records),
        "rel_error_max": max(record["rel_error"] for record in records),
        "operations": len(records),
        "wall_s": wall,
        "measured": {"ops_per_s": correct / raw_wall,
                     "latency_p50_s": statistics.median(measured),
                     "latency_tail_s": tail(measured)[0],
                     "wall_s": raw_wall},
        "speed_factor": {"min": min(factors[s] for s in walls),
                         "max": max(factors[s] for s in walls)},
    }
    return values, notes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(*, spans_totals: dict, counts: dict, ops: int,
              records: list[dict], kernel: dict, pool: dict,
              serve: dict, trace: dict) -> dict:
    """Every :data:`PER_LAYER` metric.

    ``spans_totals`` is :func:`spans.layer_totals` over the process that
    did the work, ``counts`` the recorder's counts there and ``ops`` the
    number of operations those spans cover.  ``kernel`` holds
    ``TELEMETRY`` deltas over the same operations, ``pool`` the
    ``ExecutionPool.worker_times`` deltas (``busy``, ``tasks``, ``jobs``),
    ``serve`` the client-side and ``/metrics`` figures, ``trace`` the
    coverage and overhead figures.
    """
    inclusive = spans_totals["inclusive"]
    calls = spans_totals["calls"]
    pairs = spans_totals["pairs"]
    values = {name: 0.0 for name in PER_LAYER}

    for name, layer in _INCLUSIVE.items():
        values[name] = _ratio(inclusive.get(layer, 0.0), ops)
    for name, (layer, child) in _SELF.items():
        values[name] = _ratio(inclusive.get(layer, 0.0)
                              - pairs.get((layer, child), 0.0), ops)
    # run_stages is not a layer, so the units stage's spans have
    # compile.total as their parent; nested ones have another stage.
    values["compile.units_s"] = _ratio(
        pairs.get(("compile.total", "compile.units"), 0.0), ops)

    solves = counts.get("sat.solves", 0)
    values["sat.solves"] = _ratio(solves, ops)
    values["sat.decisions_per_solve"] = _ratio(
        counts.get("sat.decisions", 0), solves)
    values["sat.conflicts_per_solve"] = _ratio(
        counts.get("sat.conflicts", 0), solves)
    values["sat.propagations_per_s"] = _ratio(
        counts.get("sat.propagations", 0), inclusive.get("sat.solve", 0.0))
    values["sat.cc_propagations"] = _ratio(
        kernel.get("cc.propagations", 0), ops)

    cells = calls.get("core.cells", 0)
    values["core.cells"] = _ratio(cells, ops)
    values["core.saturated_frac"] = _ratio(
        counts.get("core.saturated", 0), cells)
    values["compile.clause_ratio"] = _ratio(
        counts.get("compile.clauses", 0), counts.get("compile.raw_clauses", 0))

    fresh = [record for record in records if not record["cached"]]
    solver_calls = sum(record["solver_calls"] for record in fresh)
    if any(record["exact"] for record in fresh):
        values["count_exact.decisions"] = _ratio(solver_calls, len(fresh))
        hits = entries = 0
        for record in fresh:
            fields = dict(_DETAIL_FIELD.findall(record["detail"]))
            hits += int(fields.get("cache_hits", 0))
            entries += int(fields.get("cache_entries", 0))
        values["count_exact.cache_hit_ratio"] = _ratio(hits, hits + entries)
    else:
        values["core.solver_calls"] = _ratio(solver_calls, len(fresh))

    values["engine.pool.busy_s"] = _ratio(pool.get("busy", 0.0), ops)
    values["engine.pool.tasks"] = _ratio(pool.get("tasks", 0), ops)
    values["engine.pool.utilisation"] = _ratio(
        pool.get("busy", 0.0),
        pool.get("jobs", 1) * inclusive.get("engine.pool.run", 0.0))

    values.update(serve)
    values["oracle.rel_error_max"] = max(
        (record["rel_error"] for record in records), default=0.0)
    values.update(trace)
    return values


def serve_figures(records: list[dict], before: dict, after: dict) -> dict:
    """The ``serve.*`` metrics a client and ``/metrics`` can see.

    Writes are the responses the server computed (``cached`` false),
    reads the ones it served from the store.  A cached response carries
    the original ``time_seconds``, so execution time comes from writes
    only.
    """
    writes = [record for record in records if not record["cached"]]
    reads = [record for record in records if record["cached"]]

    def median(values):
        return statistics.median(values) if values else 0.0

    def delta(series):
        return after.get(series, 0.0) - before.get(series, 0.0)

    hits = delta("pact_serve_cache_hits_total")
    misses = delta("pact_serve_cache_misses_total")
    return {
        "serve.exec_s": median([r["time_seconds"] for r in writes]),
        "serve.overhead_s": median([r["latency"] - r["time_seconds"]
                                    for r in writes]),
        "serve.fresh_latency_p50_s": median([r["latency"] for r in writes]),
        "serve.repeat_latency_p50_s": median([r["latency"] for r in reads]),
        "serve.store_hit_ratio": _ratio(hits, hits + misses),
        "serve.server_latency_p50_s": after.get(
            'pact_serve_latency_seconds_p50{counter="exact:cc"}', 0.0),
    }
