"""Command-line interface — a thin client of :mod:`repro.api`.

Subcommands::

    pact count FILE.smt2 [--family xor | --counter exact:cc]
                         [--epsilon 0.8] [--delta 0.2]
                         [--project x,y] [--timeout T] [--seed N]
                         [--jobs N] [--backend B]
                         [--cache-dir DIR] [--no-cache]
    pact portfolio FILE.smt2 [--counters pact:xor,pact:prime,cdm]
                         [--epsilon E] [--delta D] [--seed N]
                         [--timeout T] [--project x,y] [--jobs N]
                         [--backend B]
    pact enum FILE.smt2  [--project x,y] [--timeout T] [--limit N]
    pact compile FILE.smt2 [--project x,y] [--out FILE.cnf] [--quiet]
    pact generate --logic QF_BVFP --out DIR [--count N] [--width W]
    pact serve    [--host H] [--port P] [--workers N] [--queue-depth N]
                  [--watermark N] [--tenant-limit N] [--jobs N]
                  [--backend B] [--cache-dir DIR|FILE.sqlite]
                  [--store sqlite] [--no-cache]
                  [--default-timeout T] [--drain-timeout T]
    pact run      [--preset smoke|laptop|paper] [--jobs N] [--backend B]
                  [--cache-dir DIR] [--no-cache] [--out DIR]
    pact table1   [--preset smoke|laptop|paper] [--jobs N] [--out DIR]
    pact cactus   [--preset ...] [--jobs N] [--out DIR]
    pact accuracy [--preset ...] [--jobs N] [--out DIR]

``FILE.smt2`` may declare the projection set via
``(set-info :projected-vars (x y))``; ``--project`` overrides it.

No command dispatches counters itself: every counter name (``--family``,
``--counters``, the run/experiment configurations) resolves through the
:mod:`repro.api` registry, and execution goes through a
:class:`repro.api.Session` owning the pool and the fingerprint cache.

``--jobs N`` executes iterations (``count``), racing counters
(``portfolio``) or matrix slots (``run`` and the experiments) across N
workers via :mod:`repro.engine`; ``count`` results are bit-identical to
``--jobs 1``.  ``run`` and ``serve`` keep a fingerprint result cache
(default ``.pact-cache/``) so repeated invocations skip solved slots;
``--no-cache`` disables it.  A ``--cache-dir`` ending in
``.sqlite``/``.sqlite3``/``.db`` is the database file; any other path
is a directory holding ``pact-cache.sqlite``.  An interrupt (Ctrl-C, or
SIGTERM during ``run``) ends every command with ``c interrupted`` and
exit code 130; ``run`` resumes from its store on the next invocation.
"""

from __future__ import annotations

import argparse
import pathlib
import signal
import sys
import time

from repro.api import (
    CountRequest, DEFAULT_PORTFOLIO, Problem, Session,
)
from repro.benchgen.generators import GENERATORS
from repro.errors import ReproError
from repro.harness.accuracy import accuracy_csv, accuracy_plot, run_accuracy
from repro.harness.cactus import cactus_csv, cactus_plot, cactus_table
from repro.harness.presets import Preset
from repro.harness.report import matrix_summary, records_csv
from repro.harness.runner import run_matrix
from repro.harness.table1 import run_table1, table1_rows
from repro.status import Status


def _problem(args) -> Problem:
    project = None
    if getattr(args, "project", None):
        project = [name.strip() for name in args.project.split(",")]
    return Problem.from_file(args.file, project=project)


def _session(args, default_cache_dir: str | None = None) -> Session:
    cache_dir = None
    if not getattr(args, "no_cache", False):
        cache_dir = getattr(args, "cache_dir", None) or default_cache_dir
    # jobs=0 means "one per CPU" (ExecutionPool resolves it); only
    # commands without engine flags fall back to the serial default.
    return Session(jobs=getattr(args, "jobs", 1),
                   backend=getattr(args, "backend", None),
                   cache_dir=cache_dir)


def _request(args, counter: str) -> CountRequest:
    return CountRequest(counter=counter, epsilon=args.epsilon,
                        delta=args.delta, seed=args.seed,
                        timeout=args.timeout,
                        component_store=getattr(args, "component_store",
                                                None))


def _print_solved(response) -> None:
    kind = "exact" if response.exact else "approximate"
    print(f"s {kind} {response.estimate}")


def _print_unsolved(response) -> None:
    print(f"s {response.status}")
    if response.status is Status.ERROR:
        # The cause (a counter's refusal, a store that will not open)
        # is the whole answer; it must not need --stats to be seen.
        print(f"c error {response.detail}")


def _cmd_count(args) -> int:
    problem = _problem(args)
    counter = args.counter or args.family
    with _session(args) as session:
        response = session.count(problem, _request(args, counter))
    if response.cached:
        if response.solved:
            _print_solved(response)
            print(f"c cache hit ({session.cache.path}); originally "
                  f"solved in {response.time_seconds:.2f}s")
            return 0
        print(f"s {response.status}")
        print(f"c cache hit ({session.cache.path}); cached "
              f"{response.status} under this budget (--no-cache or a "
              f"different --timeout retries)")
        return 1
    if response.solved:
        _print_solved(response)
        print(f"c solver_calls {response.solver_calls} "
              f"time {response.time_seconds:.2f}s "
              f"counter {response.counter}")
        if getattr(args, "stats", False):
            if response.detail:
                print(f"c detail {response.detail}")
            _print_kernel_stats()
        return 0
    _print_unsolved(response)
    if getattr(args, "stats", False):
        if response.detail and response.status is not Status.ERROR:
            print(f"c detail {response.detail}")
        _print_kernel_stats()
    return 1


def _print_kernel_stats() -> None:
    """The merged process-wide kernel telemetry, one counter per line.

    Counters are prefixed by substrate (``pact.``, ``cdm.``, ``cc.``)
    and cover the whole process — with ``--no-cache`` and a fresh run
    this is exactly the solve's own kernel work.
    """
    from repro.sat.kernel import TELEMETRY
    snapshot = TELEMETRY.snapshot()
    if not snapshot:
        print("c kernel-stats (none: solve served without kernel work)")
        return
    for key in sorted(snapshot):
        print(f"c kernel-stats {key} {snapshot[key]}")


def _cmd_portfolio(args) -> int:
    problem = _problem(args)
    counters = ([name.strip() for name in args.counters.split(",")
                 if name.strip()] or list(DEFAULT_PORTFOLIO))
    with _session(args) as session:
        outcome = session.portfolio(problem, counters,
                                    _request(args, counters[0]))
    if outcome.solved:
        _print_solved(outcome.response)
        print(f"c winner {outcome.winner}")
    else:
        print("s unsolved")
    for line in outcome.report().splitlines():
        print(f"c {line}")
    return 0 if outcome.solved else 1


def _cmd_enum(args) -> int:
    problem = _problem(args)
    with Session() as session:
        response = session.count(
            problem, CountRequest(counter="enum", timeout=args.timeout,
                                  limit=args.limit))
    if response.solved:
        print(f"s exact {response.estimate}")
        return 0
    _print_unsolved(response)
    return 1


def _cmd_compile(args) -> int:
    """Compile once, dump stats + DIMACS (with ``c p show`` lines)."""
    problem = _problem(args)
    artifact = problem.compile()
    stats = artifact.stats
    print(f"c compiled {problem.name}: {stats.vars} vars, "
          f"{stats.clauses} clauses, {stats.xors} xor rows "
          f"(raw: {stats.raw_clauses} clauses + {stats.raw_units} units) "
          f"in {stats.seconds:.3f}s")
    print(f"c simplify: {stats.units_fixed} units fixed, "
          f"{stats.literals_substituted} literals substituted, "
          f"{stats.aux_eliminated} variables eliminated "
          f"(-{stats.clauses_removed}/+{stats.clauses_added} clauses)")
    print(f"c support: {len(artifact.support)}/{stats.support_total} "
          f"projection bits "
          f"(fixed={stats.support_fixed} "
          f"aliased={stats.support_aliased} "
          f"free={stats.support_free})")
    if args.out:
        pathlib.Path(args.out).write_text(artifact.to_dimacs())
        print(f"c wrote {args.out}")
    elif not args.quiet:
        sys.stdout.write(artifact.to_dimacs())
    return 0


def _cmd_generate(args) -> int:
    generator = GENERATORS.get(args.logic)
    if generator is None:
        print(f"unknown logic {args.logic}; pick from "
              f"{sorted(GENERATORS)}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        instance = generator(args.seed + index, width=args.width)
        path = out / f"{instance.name}.smt2"
        path.write_text(instance.to_smtlib())
        print(f"{path}  (known count: {instance.known_count})")
    return 0


async def _serve_main(session, config) -> int:
    """Run one service until SIGINT/SIGTERM, then drain and summarise."""
    import asyncio

    from repro.serve import CountingService

    service = CountingService(session, config)
    await service.start()
    print(f"c serving on {service.address} "
          f"(workers={config.workers}, queue={config.queue_depth}, "
          f"store={getattr(session.cache, 'path', None)})", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    print(f"c draining (up to {config.drain_timeout:.0f}s) ...",
          flush=True)
    summary = await service.shutdown()
    session.close()
    for name, value in summary["counters"].items():
        print(f"c {name} {value}")
    for name, digest in summary["histograms"].items():
        print(f"c {name} count={digest['count']} "
              f"p50={digest['p50']:.3f}s p99={digest['p99']:.3f}s")
    print("c shutdown complete", flush=True)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ServeConfig

    session = _session(args, default_cache_dir=".pact-cache")
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, high_watermark=args.watermark,
        tenant_limit=args.tenant_limit,
        default_timeout=args.default_timeout,
        drain_timeout=args.drain_timeout)
    return asyncio.run(_serve_main(session, config))


def _progress_printer(event) -> None:
    source = ("cache" if event.kind == "cache-hit"
              else f"{event.time_seconds:6.2f}s")
    print(f"  [{event.counter:>10}] {event.problem:<32} "
          f"{event.status:>8} {source:>8}", flush=True)


def _sigterm_as_interrupt() -> None:
    """Long CLI runs stop on SIGTERM exactly as on Ctrl-C: the pool
    cancels pending slots and the interrupt reaches :func:`main`; the
    slots already counted are in the store, which commits every row."""

    def handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:
        pass   # not the main thread (embedded use): keep the default


def _cmd_run(args) -> int:
    """The full evaluation matrix with pool + fingerprint cache."""
    from repro.harness.report import format_table
    from repro.harness.table1 import table1_suite

    preset = Preset.by_name(args.preset)
    session = _session(args, default_cache_dir=".pact-cache")
    pool, cache = session.pool, session.cache

    instances = table1_suite(preset)
    print(f"running {len(instances)} instances x 4 configurations "
          f"(preset={preset.name}, jobs={pool.jobs}, "
          f"backend={pool.backend}, "
          f"cache={'off' if cache is None else cache.path})")
    _sigterm_as_interrupt()
    start = time.monotonic()
    records = run_matrix(
        instances, preset, pool=pool, cache=cache,
        progress=_progress_printer if args.verbose else None)

    summary = matrix_summary(records, session, time.monotonic() - start,
                             preset)
    table = format_table(
        ["Logic", "CDM", "pact_prime", "pact_shift", "pact_xor"],
        table1_rows(records),
        title=f"Instances counted (preset={preset.name})")
    print(summary)
    print()
    print(table)
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "run_summary.txt").write_text(
            summary + "\n\n" + table + "\n")
        (out / "run_records.csv").write_text(records_csv(records))
        print(f"\nwrote {out}/run_summary.txt, run_records.csv")
    return 0


def _experiment(args, runner) -> int:
    preset = Preset.by_name(args.preset)
    out = pathlib.Path(args.out) if args.out else None
    pool = _session(args).pool
    progress = _progress_printer if args.verbose else None
    return runner(preset, out, progress,
                  pool if pool.parallel else None)


def _run_table1(preset, out, progress, pool) -> int:
    records, table = run_table1(preset, progress=progress, pool=pool)
    print(table)
    print()
    print(cactus_table(records))
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "table1.txt").write_text(table + "\n")
        (out / "fig1_cactus.csv").write_text(cactus_csv(records))
        (out / "fig1_cactus.txt").write_text(
            cactus_table(records) + "\n\n" + cactus_plot(records) + "\n")
        print(f"\nwrote {out}/table1.txt, fig1_cactus.csv, fig1_cactus.txt")
    return 0


def _run_cactus(preset, out, progress, pool) -> int:
    records, _ = run_table1(preset, progress=progress, pool=pool)
    print(cactus_table(records))
    print()
    print(cactus_plot(records))
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "fig1_cactus.csv").write_text(cactus_csv(records))
    return 0


def _run_accuracy(preset, out, progress, pool) -> int:
    records, table = run_accuracy(preset, progress=progress, pool=pool)
    print(table)
    print()
    print(accuracy_plot(records, preset.epsilon))
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "fig2_accuracy.csv").write_text(accuracy_csv(records))
        (out / "fig2_accuracy.txt").write_text(table + "\n")
    return 0


def _add_engine_arguments(parser, cache: bool = True) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker count (0 = one per CPU)")
    parser.add_argument("--backend", default=None,
                        choices=["serial", "thread", "process"],
                        help="pool backend (default: process when jobs>1;"
                             " only processes split a count)")
    if cache:
        parser.add_argument("--cache-dir", default=None,
                            help="fingerprint result cache: a "
                                 ".sqlite/.sqlite3/.db file, or a "
                                 "directory holding pact-cache.sqlite")
        parser.add_argument("--no-cache", action="store_true",
                            help="disable the result cache")


def _add_request_arguments(parser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.8)
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--project", default=None,
                        help="comma-separated projection variables")


def _cmd_lint(args) -> int:
    # Delegate to the analysis CLI so `pact lint` and
    # `python -m repro.analysis` share one implementation.
    from repro.analysis.cli import main as lint_main
    argv = list(args.paths)
    argv += ["--format", args.format]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.write_baseline:
        argv += ["--write-baseline", args.write_baseline]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pact",
        description="Approximate SMT counting beyond discrete domains "
                    "(DAC 2025 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count",
                           help="projected count (approximate or exact)")
    count.add_argument("file")
    count.add_argument("--family", default="xor",
                       choices=["xor", "prime", "shift", "cdm"])
    count.add_argument("--counter", default=None,
                       help="full registry counter name (e.g. exact:cc, "
                            "pact:prime, enum); overrides --family")
    count.add_argument("--stats", action="store_true",
                       help="print the merged kernel-telemetry snapshot "
                            "(decisions, propagations, conflicts, "
                            "restarts, ...) after the count")
    count.add_argument("--component-store", default=None, metavar="PATH",
                       help="shared sqlite component cache for "
                            "--counter exact:cc: consulted before the "
                            "search, flushed after; safe to share "
                            "across concurrent runs and --jobs workers "
                            "(counts are exact either way)")
    _add_request_arguments(count)
    _add_engine_arguments(count)
    count.set_defaults(handler=_cmd_count)

    portfolio = sub.add_parser(
        "portfolio",
        help="race several counters, first solved wins")
    portfolio.add_argument("file")
    portfolio.add_argument("--counters",
                           default=",".join(DEFAULT_PORTFOLIO),
                           help="comma-separated registry names "
                                "(e.g. pact:xor,pact:prime,cdm)")
    _add_request_arguments(portfolio)
    _add_engine_arguments(portfolio, cache=False)
    portfolio.set_defaults(handler=_cmd_portfolio)

    enum = sub.add_parser("enum", help="exact count by enumeration")
    enum.add_argument("file")
    enum.add_argument("--timeout", type=float, default=None)
    enum.add_argument("--limit", type=int, default=None)
    enum.add_argument("--project", default=None)
    enum.set_defaults(handler=_cmd_enum)

    compile_cmd = sub.add_parser(
        "compile",
        help="compile once: stats + DIMACS with c-p-show lines")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("--project", default=None,
                             help="comma-separated projection variables")
    compile_cmd.add_argument("--out", default=None,
                             help="write DIMACS here instead of stdout")
    compile_cmd.add_argument("--quiet", action="store_true",
                             help="stats only, no DIMACS on stdout")
    compile_cmd.set_defaults(handler=_cmd_compile)

    generate = sub.add_parser("generate",
                              help="emit synthetic .smt2 benchmarks")
    generate.add_argument("--logic", required=True)
    generate.add_argument("--out", required=True)
    generate.add_argument("--count", type=int, default=5)
    generate.add_argument("--width", type=int, default=10)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_cmd_generate)

    serve = sub.add_parser(
        "serve",
        help="the always-on async counting service (HTTP/JSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8991,
                       help="listen port (0 = OS-assigned)")
    serve.add_argument("--workers", type=int, default=4,
                       help="concurrent counting worker threads")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="hard queue capacity")
    serve.add_argument("--watermark", type=int, default=None,
                       help="admission cutoff depth "
                            "(default: --queue-depth)")
    serve.add_argument("--tenant-limit", type=int, default=None,
                       help="max in-flight jobs per tenant")
    serve.add_argument("--default-timeout", type=float, default=300.0,
                       help="per-request budget when the request "
                            "names none (seconds)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to finish in-flight work on "
                            "SIGINT/SIGTERM before cancelling it")
    serve.add_argument("--store", default="sqlite", choices=["sqlite"],
                       help="result store backend (sqlite, the only "
                            "one)")
    _add_engine_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    lint = sub.add_parser(
        "lint", help="invariant-aware static analysis "
                     "(determinism, locks, pickling, event loop)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories (default: src)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text")
    lint.add_argument("--baseline", metavar="PATH")
    lint.add_argument("--rules", metavar="ID[,ID...]")
    lint.add_argument("--write-baseline", metavar="PATH")
    lint.add_argument("--list-rules", action="store_true")
    lint.set_defaults(handler=_cmd_lint)

    run = sub.add_parser(
        "run", help="the evaluation matrix with pool + result cache")
    run.add_argument("--preset", default="smoke",
                     choices=["smoke", "laptop", "paper"])
    run.add_argument("--out", default=None)
    run.add_argument("--verbose", action="store_true")
    _add_engine_arguments(run)
    run.set_defaults(handler=_cmd_run)

    for name, runner, help_text in (
            ("table1", _run_table1, "Table I: instances counted per logic"),
            ("cactus", _run_cactus, "Fig. 1: cactus plot"),
            ("accuracy", _run_accuracy, "Fig. 2: observed error")):
        experiment = sub.add_parser(name, help=help_text)
        experiment.add_argument("--preset", default="smoke",
                                choices=["smoke", "laptop", "paper"])
        experiment.add_argument("--out", default=None)
        experiment.add_argument("--verbose", action="store_true")
        _add_engine_arguments(experiment, cache=False)
        experiment.set_defaults(
            handler=lambda args, r=runner: _experiment(args, r))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # No partial result is printed: it could read as a whole one.
        # What was counted before the interrupt is already in the store.
        print("c interrupted", flush=True)
        return 130


if __name__ == "__main__":
    sys.exit(main())
