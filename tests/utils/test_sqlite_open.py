"""Processes racing to open one fresh sqlite file: SQLite can fail the
WAL switch with "database is locked" without waiting out the busy
timeout, so :func:`repro.serve.store.open_wal` retries it.  Every open
of every round must succeed."""

import multiprocessing
from pathlib import Path

import pytest

from repro.serve.store import SqliteStore

WORKERS = 4
ROUNDS = 200


def _open_every_round(store_class, directory, barrier, results):
    """Open round ``i``'s fresh file together with the other workers;
    report every failed open."""
    failures = []
    for index in range(ROUNDS):
        barrier.wait(timeout=30)
        try:
            store_class(Path(directory) / f"round{index}.sqlite").close()
        except Exception as error:  # noqa: BLE001 - reported as a failure
            failures.append(f"round {index}: {error!r}")
    results.put(failures)


@pytest.mark.parametrize("store_class", [SqliteStore],
                         ids=lambda cls: cls.__name__)
def test_simultaneous_opens_of_a_fresh_file_succeed(tmp_path, store_class):
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(WORKERS)
    results = context.Queue()
    workers = [context.Process(target=_open_every_round,
                               args=(store_class, str(tmp_path), barrier,
                                     results))
               for _ in range(WORKERS)]
    for worker in workers:
        worker.start()
    try:
        failures = [failure for _ in workers
                    for failure in results.get(timeout=60)]
    finally:
        for worker in workers:
            worker.join(timeout=10)
            if worker.is_alive():
                worker.kill()
    assert failures == []
    assert [worker.exitcode for worker in workers] == [0] * WORKERS
