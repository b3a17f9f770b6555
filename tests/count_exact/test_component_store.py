"""The disk-backed component store (the ``components`` table of
:class:`repro.serve.store.SqliteStore`): codec, masks, merge-on-write,
corruption tolerance, cross-process sharing, databases written by
earlier versions and the purge-on-zero persistence discipline."""

import sqlite3
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.count_exact.counter import CcStats, count_snapshot
from repro.count_exact.signature import (
    decode_signature, encode_signature, signature_mask,
)
from repro.sat.kernel import SatSnapshot
from repro.serve.store import SqliteStore
from repro.status import Status

WIDE = frozenset(range(1, 10_000))


def _component_rows(path) -> int:
    with sqlite3.connect(path) as conn:
        (count,) = conn.execute("SELECT COUNT(*) FROM components").fetchone()
    return count


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize("signature", [
        (),
        (("c", (1, -2)),),
        (("c", (-5, 3, 7)), ("x", (2, 4), True)),
        (("x", (1, 2, 3), False),),
    ])
    def test_roundtrip(self, signature):
        assert decode_signature(encode_signature(signature)) == signature

    @pytest.mark.parametrize("text", [
        "not json",
        "{}",
        '[["q",[1]]]',          # unknown residual tag
        '[["c","nope"]]',       # literals not ints
        '[["x",[1,2]]]',        # xor row missing its parity
        '[null]',
    ])
    def test_corrupt_text_decodes_to_none(self, text):
        assert decode_signature(text) is None

    def test_mask_is_sorted_projection_support(self):
        signature = (("c", (3, -1)), ("x", (2, 9), True))
        assert signature_mask(signature, frozenset({1, 2, 5})) == (1, 2)
        assert signature_mask(signature, WIDE) == (1, 2, 3, 9)
        assert signature_mask(signature, frozenset()) == ()


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestComponentStore:
    def test_flush_load_roundtrip(self, tmp_path):
        store = SqliteStore(tmp_path / "cc.sqlite")
        entries = {(("c", (1, 2)),): 3,
                   (("x", (4, 5), True),): 1 << 80}  # beyond sqlite ints
        assert store.flush_components(entries, WIDE) == 2
        assert store.load_components(WIDE) == entries
        assert (store.flushed, store.loaded) == (2, 2)
        assert _component_rows(store.path) == 2
        assert len(store) == 0      # len counts result entries only
        store.close()

    def test_load_filters_by_projection_mask(self, tmp_path):
        store = SqliteStore(tmp_path / "cc.sqlite")
        signature = (("c", (1, 2)),)
        store.flush_components({signature: 3}, WIDE)
        # under a projection where var 2 is no longer projected the
        # stored mask (1, 2) no longer matches -> miss, not a wrong hit
        assert store.load_components(frozenset({1})) == {}
        assert store.load_components(WIDE) == {signature: 3}
        store.close()

    def test_merge_on_write_keeps_first_saved_at(self, tmp_path):
        path = tmp_path / "cc.sqlite"
        store = SqliteStore(path)
        signature = (("c", (1, 2)),)
        store.flush_components({signature: 3}, WIDE)
        (first_saved,) = store._conn.execute(
            "SELECT saved_at FROM components").fetchone()
        store.flush_components({signature: 3}, WIDE)
        (second_saved, count) = store._conn.execute(
            "SELECT saved_at, count FROM components").fetchone()
        assert second_saved == first_saved
        assert count == "3"
        assert _component_rows(path) == 1
        store.close()

    def test_corrupt_rows_read_as_misses(self, tmp_path):
        path = tmp_path / "cc.sqlite"
        store = SqliteStore(path)
        good = (("c", (1, 2)),)
        store.flush_components({good: 7}, WIDE)
        with sqlite3.connect(path) as conn:
            conn.executemany(
                "INSERT INTO components VALUES (?, ?, ?, 0)",
                [("not json", "[1]", "5"),
                 (encode_signature((("c", (3, 4)),)), "[3,4]", "xyz"),
                 (encode_signature((("c", (5, 6)),)), "bad mask", "5")])
        assert store.load_components(WIDE) == {good: 7}
        assert store.corrupt == 3
        store.close()

    def test_concurrent_process_writers_lose_nothing(self, tmp_path):
        path = str(tmp_path / "cc.sqlite")
        with ProcessPoolExecutor(max_workers=4) as executor:
            written = list(executor.map(
                _flush_disjoint_range, [path] * 4, [100, 200, 300, 400]))
        assert written == [20] * 4
        store = SqliteStore(path)
        entries = store.load_components(WIDE)
        assert len(entries) == 80
        for base in (100, 200, 300, 400):
            for offset in range(20):
                var = base + 2 * offset
                assert entries[(("c", (var, var + 1)),)] == var
        store.close()


def _flush_disjoint_range(path: str, base: int) -> int:
    store = SqliteStore(path)
    entries = {(("c", (base + 2 * offset, base + 2 * offset + 1)),):
               base + 2 * offset
               for offset in range(20)}
    written = store.flush_components(entries, WIDE)
    store.close()
    return written


# ----------------------------------------------------------------------
# persistence discipline through the search
# ----------------------------------------------------------------------
def _snapshot(clauses, num_vars, xors=()):
    return SatSnapshot(num_vars, tuple(tuple(c) for c in clauses), (),
                       tuple(xors), ok=True)


class TestSearchIntegration:
    def test_clean_completion_flushes_and_second_run_hits(self, tmp_path):
        path = tmp_path / "cc.sqlite"
        snapshot = _snapshot([(1, 2), (3, 4)], 4)
        projection = frozenset({1, 2, 3, 4})
        cold_stats = CcStats()
        cold = count_snapshot(snapshot, projection, component_store=path,
                              stats=cold_stats)
        assert cold.status is Status.OK and cold.estimate == 9
        assert cold_stats.store_hits == 0
        assert _component_rows(path) > 0
        warm_stats = CcStats()
        warm = count_snapshot(snapshot, projection, component_store=path,
                              stats=warm_stats)
        assert warm.estimate == 9
        assert warm_stats.store_hits > 0
        assert "store_hits=" in warm.detail

    def test_zeroed_scope_entries_never_persist(self, tmp_path):
        """Sang-Beame-Kautz at flush time: a zero product purges every
        entry its scope inserted, so the satisfiable sibling's count
        (a lower bound under learning, not a fact) never reaches disk."""
        path = tmp_path / "cc.sqlite"
        snapshot = _snapshot(
            [(1, 2), (1, -2), (-1, 2), (-1, -2), (3, 4)], 4)
        result = count_snapshot(snapshot, frozenset({1, 2, 3, 4}),
                                component_store=path, presolve=False)
        assert result.estimate == 0
        assert _component_rows(path) == 0

    def test_timeout_flushes_nothing(self, tmp_path):
        path = tmp_path / "cc.sqlite"
        snapshot = _snapshot([(1, 2), (3, 4)], 4)
        result = count_snapshot(snapshot, frozenset({1, 2, 3, 4}),
                                component_store=path, timeout=0)
        assert result.status is Status.TIMEOUT
        assert not path.exists() or _component_rows(path) == 0

    def test_store_that_is_not_a_database_ends_as_error(self, tmp_path):
        """Through ``Session.count`` a component store that is not a
        database is an error response, never a crash or a count, and
        the file is left as it was."""
        from repro.api import CountRequest, Problem, Session
        from repro.smt.terms import bv_ult, bv_val, bv_var

        path = tmp_path / "cc.sqlite"
        path.write_text("not a database")
        x = bv_var("cs_notdb", 6)
        problem = Problem.from_terms([bv_ult(x, bv_val(20, 6))], [x])
        response = Session().count(problem, CountRequest(
            counter="exact:cc", component_store=str(path)))
        assert response.status is Status.ERROR
        assert response.estimate is None
        assert "cc.sqlite" in response.detail
        assert path.read_text() == "not a database"


# The parent's DDL of the component database, verbatim.
PARENT_COMPONENTS_DDL = """
CREATE TABLE IF NOT EXISTS components (
    signature  TEXT NOT NULL,
    projection TEXT NOT NULL,
    count      TEXT NOT NULL,
    saved_at   REAL NOT NULL,
    PRIMARY KEY (signature, projection)
);
"""


def test_parent_components_database_warms_the_search(tmp_path):
    """A components-only database built with the earlier DDL, its rows
    inserted by raw SQL in that version's encoding, loads and warms a
    count."""
    path = tmp_path / "parent-cc.sqlite"
    with sqlite3.connect(path) as conn:
        conn.executescript(PARENT_COMPONENTS_DDL)
        conn.executemany(
            "INSERT INTO components VALUES (?, ?, ?, 0)",
            [('[["c",[1,2]]]', "[1,2]", "3"),
             ('[["c",[3,4]]]', "[3,4]", "3")])
    projection = frozenset({1, 2, 3, 4})
    with SqliteStore(path) as store:
        assert store.load_components(projection) == {
            (("c", (1, 2)),): 3, (("c", (3, 4)),): 3}
    stats = CcStats()
    warm = count_snapshot(_snapshot([(1, 2), (3, 4)], 4), projection,
                          component_store=path, stats=stats)
    assert warm.estimate == 9
    assert stats.store_hits > 0
    assert "store_hits=" in warm.detail


# ----------------------------------------------------------------------
# differential: a warmed store never changes a count
# ----------------------------------------------------------------------
@st.composite
def snapshots(draw):
    num_vars = draw(st.integers(min_value=4, max_value=9))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda var: st.sampled_from([var, -var]))
    clauses = draw(st.lists(
        st.lists(literal, min_size=1, max_size=3, unique_by=abs)
        .map(tuple), min_size=2, max_size=10))
    xors = draw(st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=num_vars),
                     min_size=2, max_size=4, unique=True)
            .map(lambda vs: tuple(sorted(vs))),
            st.booleans()),
        min_size=0, max_size=2))
    projection = draw(st.lists(
        st.integers(min_value=1, max_value=num_vars),
        min_size=1, max_size=num_vars, unique=True))
    return (_snapshot(clauses, num_vars, xors), frozenset(projection))


class TestStoreDifferential:
    @given(case=snapshots())
    @settings(max_examples=30, deadline=None)
    def test_store_warmed_counts_equal_cold_counts(self, case):
        snapshot, projection = case
        cold = count_snapshot(snapshot, projection)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cc.sqlite"
            first = count_snapshot(snapshot, projection,
                                   component_store=path)
            second = count_snapshot(snapshot, projection,
                                    component_store=path)
        assert cold.estimate == first.estimate == second.estimate
