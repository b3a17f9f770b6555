"""The fan-out parse memo stays bounded, and eviction loses nothing."""

import sys
import threading

from repro.engine import fanout
from repro.engine.fanout import make_spec, parse_cached
from repro.smt import bv_ult, bv_val, bv_var


def test_parse_memo_evicts_oldest_first_at_the_cap(monkeypatch):
    monkeypatch.setattr(fanout, "_parse_memo", {})
    problems = []
    for index in range(fanout._PARSE_CAP + 1):
        x = bv_var(f"parse_cap_{index}", 6)
        assertions = [bv_ult(x, bv_val(40 + index % 20, 6))]
        spec = make_spec("pact", assertions, [x], epsilon=0.8, delta=0.2,
                         family="xor", seed=1)
        problems.append((spec, assertions, [x]))
    assert len(fanout._parse_memo) == fanout._PARSE_CAP

    oldest, assertions, projection = problems[0]
    assert oldest.digest not in fanout._parse_memo
    assert problems[-1][0].digest in fanout._parse_memo
    assert parse_cached(oldest.script) == (assertions, projection)
    assert len(fanout._parse_memo) == fanout._PARSE_CAP


def test_parse_memo_stays_bounded_under_concurrent_writers(monkeypatch):
    """More writer threads than cores, switching often: the cap holds
    and every reader gets its own script's terms back."""
    monkeypatch.setattr(fanout, "_parse_memo", {})
    monkeypatch.setattr(fanout, "_PARSE_CAP", 8)
    errors = []

    def writer(worker):
        try:
            for index in range(30):
                x = bv_var(f"parse_race_{worker}_{index}", 6)
                assertions = [bv_ult(x, bv_val(1 + index, 6))]
                spec = make_spec("pact", assertions, [x], epsilon=0.8,
                                 delta=0.2, family="xor", seed=1)
                if parse_cached(spec.script) != (assertions, [x]):
                    errors.append((worker, index))
                assert len(fanout._parse_memo) <= fanout._PARSE_CAP
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(fanout._parse_memo) <= fanout._PARSE_CAP
