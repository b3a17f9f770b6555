"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out DIR]

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics, with timings at the reference speed
(:mod:`reference`); with ``--trace 1`` the run installs the layer spans
(:mod:`spans`) and the metrics are the per-layer ones, plus the tracing
overhead against untraced operations of the same run.  The line before
it is a JSON object of notes: the tail percentile and its sample count,
the failed fraction, the largest relative error, the timings as
measured with the reference samples, and the per-layer metrics this
workload cannot measure, with the reason.

Per-operation records (estimate, solver calls, kernel counter deltas,
latency) and, for a traced run, the spans are written under
``--out`` (default ``.perfbench-out``) and nowhere else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3

# Per-layer metrics a workload cannot measure, or measures only in
# part, with the reason.  One it cannot measure is reported as 0.
NOT_MEASURED = {
    "pact-xor-j2": {
        **dict.fromkeys((
            "serve.exec_s", "serve.overhead_s", "serve.fresh_latency_p50_s",
            "serve.repeat_latency_p50_s", "serve.store_hit_ratio",
            "serve.server_latency_p50_s", "serve.store_get_s",
            "serve.store_put_s", "serve.store_flush_s"),
            "no server on this workload"),
        **dict.fromkeys((
            "count_exact.closure_s", "count_exact.presolve_s",
            "count_exact.search_s", "count_exact.decisions",
            "count_exact.cache_hit_ratio", "sat.cc_propagations"),
            "pact runs no exact:cc search"),
    },
    "serve-mix": {
        **dict.fromkeys((
            "engine.pool.run_s", "engine.pool.busy_s",
            "engine.pool.utilisation", "engine.pool.tasks"),
            "serial Session: no ExecutionPool.run on this workload"),
        **dict.fromkeys((
            "core.cells_self_s", "core.cells", "core.saturated_frac",
            "core.solver_calls", "core.hash_s", "smt.check_s"),
            "exact:cc runs no pact cells, hashes or SmtSolver checks"),
        "oracle.rel_error_max": "exact answers: 0 whenever the oracle "
                                "check passes",
        "serve.store_flush_s": "SqliteStore.flush only enforces "
                               "max_entries, which pact serve leaves "
                               "unset: the time of calls that return "
                               "at once",
        "api.session_self_s": "in the server, Session.count's own time "
                              "includes the SqliteStore get/put calls",
        "trace.coverage": "operations run in the server; the client sees "
                          "only HTTP latency",
    },
}


def _check_checkout(root: Path) -> None:
    """Import ``repro`` from this checkout's ``src`` or stop."""
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/repro under {root}; run from the "
                         "repository root")
    sys.path.insert(0, str(source))
    import repro
    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {source}")


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def _write_records(out: Path, records: list[dict]) -> None:
    with open(out / "ops.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _pool_state(session) -> tuple[float, int]:
    times = session.pool.worker_times.values()
    return (sum(busy for _tasks, busy in times),
            sum(tasks for tasks, _busy in times))


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
def _local_setup(workload, seed: int, tag: int):
    """Generate the problems, open the Session, run one warm-up count."""
    from repro.api import Session
    from workloads import CaseSource, count_once, generate, warmup_case

    source = CaseSource(generate(seed, workload.width, workload.per_logic))
    session = Session(jobs=workload.jobs, backend=workload.backend)
    # The warm-up pays lazy imports and (with jobs=2) a first fan-out;
    # two iterations are enough to take every code path.
    warm = dataclasses.replace(
        workload, iterations=2 if workload.iterations else None)
    record = count_once(session, warm, warmup_case(workload.width, tag), -1)
    if not record["ok"]:
        raise SystemExit(f"error: warm-up count failed: {record}")
    return source, session


def _setups(speed, make, stop=None) -> tuple:
    """``make(tag)`` :data:`SETUP_REPEATS` times, each in a segment of its
    own; ``stop`` ends all but the last.  Returns the last one's result
    and the median set-up time at the reference speed and as measured."""
    scaled, measured = [], []
    for tag in range(SETUP_REPEATS):
        segment = speed.segment
        start = time.perf_counter()
        made = make(tag)
        measured.append(time.perf_counter() - start)
        speed.close()
        scaled.append(measured[-1] * speed.factor(segment))
        if stop is not None and tag < SETUP_REPEATS - 1:
            stop(made)
    return made, statistics.median(scaled), statistics.median(measured)


def _finish(records, walls, speed, setup_s, setup_measured, rss):
    from metrics import end_to_end

    values, notes = end_to_end(
        records, walls, {segment: speed.factor(segment) for segment in walls},
        setup_s, rss)
    notes["measured"]["setup_s"] = setup_measured
    notes["reference_s"] = speed.samples
    return values, notes, records


def _run_local(workload, args, out: Path):
    from reference import Speedometer
    from workloads import run_in_process

    if args.trace:
        return _trace_local(workload, args, out)
    speed = Speedometer()
    (source, session), setup_s, setup_measured = _setups(
        speed, lambda tag: _local_setup(workload, args.seed, tag))
    rss = []
    records, walls = run_in_process(
        session, workload, source, args.seconds,
        milestone=lambda: rss.append(_self_rss_mb()), speed=speed)
    _write_records(out, records)
    return _finish(records, walls, speed, setup_s, setup_measured, rss[0])


def _trace_local(workload, args, out: Path):
    """Traced operations, each preceded by the same operation untraced
    (on an alpha-renamed copy, so no cache carries over): the per-layer
    figures come from the traced ones, the overhead from the pairs."""
    import spans
    from metrics import per_layer
    from repro.sat.kernel import TELEMETRY
    from workloads import LOGICS, count_once

    source, session = _local_setup(workload, args.seed, 0)
    recorder = spans.Recorder()
    records, plain = [], []
    kernel = {}
    busy = tasks = 0.0
    start = time.perf_counter()
    index = 0
    while index % len(LOGICS) or time.perf_counter() - start < args.seconds:
        case = source[index]
        plain.append(count_once(session, workload, case.renamed("u"),
                                index))
        busy_before, tasks_before = _pool_state(session)
        before = TELEMETRY.snapshot()
        recorder.install()
        try:
            records.append(count_once(session, workload, case, index,
                                      recorder))
        finally:
            recorder.uninstall()
        after = TELEMETRY.snapshot()
        for key in after:
            kernel[key] = kernel.get(key, 0) + after[key] - before.get(key, 0)
        busy_after, tasks_after = _pool_state(session)
        busy += busy_after - busy_before
        tasks += tasks_after - tasks_before
        index += 1
    recorder.dump(out / "spans.jsonl")
    _write_records(out, records)

    covered = spans.top_level_by_op(recorder.spans)
    traced_time = sum(record["latency"] for record in records)
    plain_time = sum(record["latency"] for record in plain)
    trace = {
        "trace.coverage": statistics.median(
            covered.get(record["op"], 0.0) / record["latency"]
            for record in records),
        "trace.overhead_frac": traced_time / plain_time - 1.0,
    }
    values = per_layer(
        spans_totals=spans.layer_totals(recorder.spans),
        counts=recorder.counts, ops=len(records), records=records,
        kernel=kernel,
        pool={"busy": busy, "tasks": tasks, "jobs": session.pool.jobs},
        serve={}, trace=trace)
    failed = [record for record in records + plain if not record["ok"]]
    notes = {"operations": len(records),
             "untraced_pairs": len(plain),
             "fail_frac": len(failed) / (len(records) + len(plain)),
             "traced_s": traced_time, "untraced_s": plain_time}
    return values, notes, records + plain


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
def _serve_setup(workload, args, out: Path, tag: int, spans_out=None):
    """Generate the problems, start the server on a fresh store, warm
    it up."""
    import serving
    from workloads import CaseSource, generate

    source = CaseSource(generate(args.seed, workload.width,
                                 workload.per_logic))
    store = out / f"store{tag}"
    shutil.rmtree(store, ignore_errors=True)
    server = serving.Server(Path.cwd(), store, spans_out=spans_out)
    try:
        serving.warm_up(server.address, source, workload.counter, tag)
    except BaseException:
        _stop(server)
        raise
    return source, server


def _serve_pass(workload, args, source, server, limit=None, rss=None,
                speed=None):
    """One closed-loop pass; appends the server's peak memory to ``rss``
    at the fixed-work milestone."""
    import serving

    plan = serving.Plan(lambda index: source[index], seed=args.seed,
                        limit=limit)
    before = serving.scrape(server.address)
    records, walls = serving.run_clients(
        server.address, plan, workload.counter,
        args.seconds if limit is None else serving.START_TIMEOUT * 10,
        milestone=lambda: rss is not None and rss.append(
            server.peak_rss_mb()), speed=speed)
    after = serving.scrape(server.address)
    return records, walls, before, after


def _stop(server) -> None:
    """Stop a server, drop its store, and fail the run on an unclean
    exit."""
    code = server.stop()
    shutil.rmtree(server.store_dir, ignore_errors=True)
    if code != 0:
        raise SystemExit(f"error: pact serve exited with {code}:\n"
                         + "".join(server.output[-20:]))


def _run_serve(workload, args, out: Path):
    from reference import Speedometer

    if args.trace:
        return _trace_serve(workload, args, out)
    speed = Speedometer()
    (source, server), setup_s, setup_measured = _setups(
        speed, lambda tag: _serve_setup(workload, args, out, tag),
        stop=lambda made: _stop(made[1]))
    rss = []
    try:
        records, walls, _before, _after = _serve_pass(
            workload, args, source, server, rss=rss, speed=speed)
    finally:
        _stop(server)
    _write_records(out, records)
    return _finish(records, walls, speed, setup_s, setup_measured, rss[0])


def _trace_serve(workload, args, out: Path):
    """A traced server for ``seconds``, then an untraced one answering
    the same request sequence; the overhead is the wall-time ratio."""
    import spans
    from metrics import per_layer, serve_figures

    spans_file = out / "spans.jsonl"
    source, server = _serve_setup(workload, args, out, 0,
                                  spans_out=spans_file)
    try:
        records, walls, before, after = _serve_pass(workload, args, source,
                                                    server)
    finally:
        _stop(server)  # the launcher writes the spans on this drain
    source, server = _serve_setup(workload, args, out, 1)
    try:
        plain, plain_walls, _before, _after = _serve_pass(
            workload, args, source, server, limit=len(records))
    finally:
        _stop(server)
    wall, plain_wall = sum(walls.values()), sum(plain_walls.values())
    _write_records(out, records)

    server_spans, counts = spans.load(spans_file)
    totals = spans.layer_totals(server_spans)
    kernel = {key[len("telemetry."):]: value
              for key, value in counts.items()
              if key.startswith("telemetry.")}
    trace = {"trace.overhead_frac": (wall / len(records))
             / (plain_wall / len(plain)) - 1.0}
    values = per_layer(
        spans_totals=totals, counts=counts,
        ops=totals["calls"].get("api.session", 0), records=records,
        kernel=kernel, pool={}, serve=serve_figures(records, before, after),
        trace=trace)
    failed = [record for record in records + plain if not record["ok"]]
    notes = {"operations": len(records), "untraced_operations": len(plain),
             "server_counts": totals["calls"].get("api.session", 0),
             "fail_frac": len(failed) / (len(records) + len(plain)),
             "traced_wall_s": wall, "untraced_wall_s": plain_wall}
    return values, notes, records + plain


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench-out",
                        help="directory for records and spans")
    args = parser.parse_args(argv)

    root = Path.cwd()
    _check_checkout(root)
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out = root / args.out / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    runner = _run_serve if workload.serve else _run_local
    values, notes, records = runner(workload, args, out)
    if args.trace:
        notes["not_measured"] = NOT_MEASURED[workload.name]
        metrics = _metric_block(values, PER_LAYER)
    else:
        metrics = _metric_block(values, END_TO_END)
    failed = sum(1 for record in records if not record["ok"])
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    notes = {"workload": workload.name, "seed": args.seed,
             "trace": args.trace, **notes}
    (out / "result.json").write_text(json.dumps(
        {"notes": notes, "result": result}, indent=1, sort_keys=True))
    print(json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
