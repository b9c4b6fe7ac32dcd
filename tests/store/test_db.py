"""The SQLite result store: round trips, corruption handling, schema
versioning, maintenance, pickling across process boundaries, and the
migration of older on-disk layouts."""

import json
import multiprocessing
import pickle
import sqlite3
import sys
import threading

import pytest

from repro.classify import Criterion
from repro.gen.suite import get_circuit
from repro.incremental import cone_classify
from repro.obs import get_registry
from repro.store.db import STORE_FORMAT_VERSION, ResultStore, as_store
from repro.store.fingerprint import SCHEMA_VERSION

FP = "rdfp1:" + "ab" * 32


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "s.sqlite") as s:
        yield s


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(FP, "counts", "", {"up": [1, 2], "down": [2, 1]})
        assert store.get(FP, "counts") == {"up": [1, 2], "down": [2, 1]}

    def test_missing_is_none(self, store):
        assert store.get(FP, "counts") is None
        assert store.get(FP, "classify", "FS|none") is None

    def test_variants_are_distinct(self, store):
        store.put(FP, "classify", "FS|none", {"accepted": 1})
        store.put(FP, "classify", "NR|none", {"accepted": 2})
        assert store.get(FP, "classify", "FS|none") == {"accepted": 1}
        assert store.get(FP, "classify", "NR|none") == {"accepted": 2}

    def test_replace(self, store):
        store.put(FP, "counts", "", {"v": 1})
        store.put(FP, "counts", "", {"v": 2})
        assert store.get(FP, "counts") == {"v": 2}

    def test_hits_counted(self, store):
        store.put(FP, "counts", "", {"v": 1})
        store.get(FP, "counts")
        store.get(FP, "counts")
        assert store.stats().total_hits == 2


class TestCorruptionAndSchema:
    def _raw_insert(self, store, payload: str, schema: int = SCHEMA_VERSION):
        conn = sqlite3.connect(store.path)
        conn.execute(
            "INSERT OR REPLACE INTO entries VALUES (?,?,?,?,?,0,0,0)",
            (FP, "counts", "", schema, payload),
        )
        conn.commit()
        conn.close()

    def test_undecodable_payload_is_a_miss_and_deleted(self, store):
        store.put(FP, "counts", "", {"v": 1})  # ensure table exists
        self._raw_insert(store, "{not json")
        assert store.get(FP, "counts") is None
        assert store.stats().entries == 0  # deleted, not kept

    def test_non_object_payload_is_a_miss(self, store):
        store.put(FP, "counts", "", {"v": 1})
        self._raw_insert(store, json.dumps([1, 2, 3]))
        assert store.get(FP, "counts") is None

    def test_other_schema_version_is_invisible(self, store):
        store.put(FP, "counts", "", {"v": 1})
        store.clear()
        self._raw_insert(store, json.dumps({"v": 1}), schema=SCHEMA_VERSION + 1)
        assert store.get(FP, "counts") is None
        stats = store.stats()
        assert stats.entries == 0
        assert stats.stale_entries == 1

    def test_gc_reclaims_stale_schema_rows(self, store):
        store.put(FP, "counts", "", {"v": 1})
        self._raw_insert(store, json.dumps({"v": 1}), schema=SCHEMA_VERSION + 1)
        # schema is part of the primary key, so both rows coexist
        assert store.gc() == 1
        assert store.stats().stale_entries == 0
        assert store.get(FP, "counts") == {"v": 1}

    def test_gc_max_age(self, store):
        store.stats()  # force schema creation before the raw insert
        self._raw_insert(store, json.dumps({"v": 1}))  # last_used=0 (1970)
        assert store.gc(max_age_days=1) == 1
        assert store.get(FP, "counts") is None


class TestMaintenance:
    def test_stats_render(self, store):
        store.put(FP, "counts", "", {"v": 1})
        store.put(FP, "classify", "FS|none", {"accepted": 0})
        text = store.stats().render()
        assert "classify=1" in text and "counts=1" in text
        assert f"schema:  {SCHEMA_VERSION}" in text

    def test_clear(self, store):
        store.put(FP, "counts", "", {"v": 1})
        assert store.clear() == 1
        assert store.stats().entries == 0

    def test_delete(self, store):
        store.put(FP, "counts", "", {"v": 1})
        store.delete(FP, "counts")
        assert store.get(FP, "counts") is None


class TestProcessBoundaries:
    def test_pickles_as_path(self, store):
        store.put(FP, "counts", "", {"v": 7})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone.get(FP, "counts") == {"v": 7}
        clone.close()

    def test_two_handles_share_one_file(self, tmp_path):
        path = tmp_path / "shared.sqlite"
        with ResultStore(path) as a, ResultStore(path) as b:
            a.put(FP, "counts", "", {"v": 1})
            assert b.get(FP, "counts") == {"v": 1}


class TestAsStore:
    def test_none(self):
        assert as_store(None) is None

    def test_instance_passthrough(self, store):
        assert as_store(store) is store

    def test_path(self, tmp_path):
        s = as_store(tmp_path / "x.sqlite")
        assert isinstance(s, ResultStore)
        s.close()


#: The layout of a v1 file: the whole-circuit table only.
_V1_DDL = """
CREATE TABLE IF NOT EXISTS entries (
    fingerprint TEXT NOT NULL,
    kind        TEXT NOT NULL,
    variant     TEXT NOT NULL,
    schema      INTEGER NOT NULL,
    payload     TEXT NOT NULL,
    created     REAL NOT NULL,
    last_used   REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, kind, variant, schema)
)
"""

#: The second table a v2 file adds for cone rows.
_V2_CONE_DDL = """
CREATE TABLE IF NOT EXISTS cone_entries (
    cone_fp     TEXT NOT NULL,
    variant     TEXT NOT NULL,
    schema      INTEGER NOT NULL,
    payload     TEXT NOT NULL,
    created     REAL NOT NULL,
    last_used   REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (cone_fp, variant, schema)
)
"""


def _old_file(path, version: int, cone_rows=(), whole_rows=()) -> None:
    """Write a store file the way a v1 or v2 build left it."""
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute(_V1_DDL)
    conn.executemany(
        "INSERT INTO entries VALUES (?,?,?,?,?,?,?,?)", whole_rows
    )
    if version >= 2:
        conn.execute(_V2_CONE_DDL)
        conn.executemany(
            "INSERT INTO cone_entries VALUES (?,?,?,?,?,?,?)", cone_rows
        )
        conn.execute(f"PRAGMA user_version={version:d}")
    conn.commit()
    conn.close()


def _layout(path) -> "tuple[set, int]":
    conn = sqlite3.connect(path)
    try:
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        return tables, conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def _rows(path, sql: str) -> list:
    conn = sqlite3.connect(path)
    try:
        return sorted(conn.execute(sql).fetchall())
    finally:
        conn.close()


def _c17_cone_rows(tmp_path) -> list:
    """Real c17 cone rows, spelled as v2 ``cone_entries`` rows with
    distinctive hits and timestamps."""
    scratch = tmp_path / "scratch.sqlite"
    with ResultStore(scratch) as store:
        cone_classify(get_circuit("c17"), Criterion.FS, store=store)
    rows = _rows(
        scratch,
        "SELECT fingerprint, variant, schema, payload FROM entries "
        "WHERE kind='cone'",
    )
    assert rows
    return [
        (fp, variant, schema, payload, 100.0 + i, 200.0 + i, 3 + i)
        for i, (fp, variant, schema, payload) in enumerate(rows)
    ]


def _open_at_once(path, barrier, results) -> None:
    barrier.wait()
    with ResultStore(path) as store:
        entries = store.stats().cone_entries
    counters = get_registry().snapshot()["counters"]
    results.put((counters.get("store.migrations", 0), entries))


class TestMigration:
    WHOLE = (FP, "counts", "", SCHEMA_VERSION, '{"v":1}', 1.0, 2.0, 5)

    def test_fresh_file_is_current(self, store):
        store.stats()
        assert _layout(store.path) == ({"entries"}, STORE_FORMAT_VERSION)

    def test_v2_cone_rows_move_intact(self, tmp_path):
        cone_rows = _c17_cone_rows(tmp_path)
        path = tmp_path / "v2.sqlite"
        _old_file(path, 2, cone_rows, [self.WHOLE])
        with ResultStore(path) as store:
            assert store.get(FP, "counts") == {"v": 1}
        assert _layout(path) == ({"entries"}, STORE_FORMAT_VERSION)
        moved = _rows(
            path,
            "SELECT fingerprint, variant, schema, payload, created, "
            "last_used, hits FROM entries WHERE kind='cone'",
        )
        assert moved == sorted(cone_rows)
        with ResultStore(path) as store:
            report = cone_classify(get_circuit("c17"), Criterion.FS, store=store)
            assert report.cones_reused == report.cones_total == len(cone_rows)
            stats = store.stats()
        assert stats.cone_entries == len(cone_rows)
        # every reuse bumped the migrated row's hit count once
        assert stats.cone_hits == sum(row[6] for row in cone_rows) + len(
            cone_rows
        )
        assert stats.by_kind == {"counts": 1}

    def test_v1_file_supports_cones_at_once(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        _old_file(path, 1, whole_rows=[self.WHOLE])
        with ResultStore(path) as store:
            store.put("rdcfp1:x", "cone", "FS|pin|-", {"total_logical": 1})
            assert store.get("rdcfp1:x", "cone", "FS|pin|-") == {
                "total_logical": 1
            }
            assert store.get(FP, "counts") == {"v": 1}
            assert store.stats().cone_entries == 1
        assert _layout(path) == ({"entries"}, STORE_FORMAT_VERSION)

    def test_concurrent_opens_migrate_once(self, tmp_path):
        cone_rows = _c17_cone_rows(tmp_path)
        path = tmp_path / "v2.sqlite"
        _old_file(path, 2, cone_rows, [self.WHOLE])
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        results = ctx.Queue()
        procs = [
            ctx.Process(target=_open_at_once, args=(str(path), barrier, results))
            for _ in range(4)
        ]
        for proc in procs:
            proc.start()
        try:
            outcomes = [results.get(timeout=60) for _ in procs]
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.kill()
        assert [proc.exitcode for proc in procs] == [0] * 4
        assert sum(migrations for migrations, _n in outcomes) == 1
        assert [n for _m, n in outcomes] == [len(cone_rows)] * 4
        assert _layout(path) == ({"entries"}, STORE_FORMAT_VERSION)
        assert len(_rows(path, "SELECT * FROM entries")) == len(cone_rows) + 1
        # a re-open of the migrated file is a no-op
        before = get_registry().snapshot()["counters"].get("store.migrations", 0)
        with ResultStore(path) as store:
            assert store.stats().cone_entries == len(cone_rows)
        after = get_registry().snapshot()["counters"].get("store.migrations", 0)
        assert after == before

    def test_threads_share_one_connection(self, tmp_path, monkeypatch):
        """Threads whose first calls race open (and migrate) once."""
        path = tmp_path / "v2.sqlite"
        _old_file(path, 2, [], [self.WHOLE])
        connects = []
        real_connect = ResultStore._connect

        def counting_connect(store):
            connects.append(threading.get_ident())
            return real_connect(store)

        monkeypatch.setattr(ResultStore, "_connect", counting_connect)
        store = ResultStore(path)
        barrier = threading.Barrier(8)
        errors = []

        def worker(i: int) -> None:
            try:
                barrier.wait()
                store.put(f"rdcfp1:{i}", "cone", "FS|pin|-", {"i": i})
                assert store.get(f"rdcfp1:{i}", "cone", "FS|pin|-") == {"i": i}
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(connects) == 1
        assert _layout(path) == ({"entries"}, STORE_FORMAT_VERSION)
        with ResultStore(path) as reopened:
            assert reopened.stats().cone_entries == 8

    def test_stale_cone_rows_are_reclaimed(self, tmp_path):
        """A v2 cone row of another schema migrates as a stale row."""
        path = tmp_path / "v2.sqlite"
        stale = ("rdcfp1:old", "FS|pin|-", SCHEMA_VERSION + 1, "{}", 0.0, 0.0, 0)
        _old_file(path, 2, [stale])
        with ResultStore(path) as store:
            assert store.stats().cone_stale == 1
            assert store.gc() == 1
            assert store.stats().cone_stale == 0
