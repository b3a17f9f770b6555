"""Shared fixtures for the benchmark suite.

Every benchmark writes its paper-shaped artifact (table / plot / CSV)
into the ``results_dir`` fixture: a directory under pytest's temporary
root by default, so a plain test run leaves the tracked
``bench_results/`` untouched, and ``bench_results/`` itself when pytest
is given ``--write-results`` (``pytest benchmarks --write-results``).
stdout shows the same tables when pytest is run with ``-s``.  Beside
the human-readable artifact, each bench file records its headline
numbers machine-readably as ``BENCH_<name>.json`` (:func:`emit_json`)
so regressions can be tracked across commits without parsing tables.
"""

import json
import os
import pathlib
import platform
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


def pytest_addoption(parser):
    parser.addoption(
        "--write-results", action="store_true", default=False,
        help="write benchmark artifacts into bench_results/ instead of "
             "a temporary directory")


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory) -> pathlib.Path:
    # The option is only registered when pytest loads this conftest
    # before parsing its arguments (a path under benchmarks/ given on
    # the command line); otherwise it reads as not given.
    if request.config.getoption("--write-results", default=False):
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("bench_results")


def emit(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print and persist an experiment artifact."""
    print(f"\n{text}\n")
    (results_dir / name).write_text(text + "\n")


def emit_json(results_dir: pathlib.Path, bench: str,
              metrics: dict) -> None:
    """Persist headline metrics as ``BENCH_<bench>.json``.

    Schema: ``{"bench": ..., "metrics": {...}, "timestamp_env": {...}}``.
    Several tests in one bench file share one document — metrics merge
    (newest value wins), so partial reruns refresh rather than clobber.
    """
    path = results_dir / f"BENCH_{bench}.json"
    merged: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if (existing.get("bench") == bench
                    and isinstance(existing.get("metrics"), dict)):
                merged = existing["metrics"]
        except ValueError:
            pass
    merged.update(metrics)
    document = {
        "bench": bench,
        "metrics": merged,
        "timestamp_env": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True)
                    + "\n")
