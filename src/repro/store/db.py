"""The SQLite-backed, content-addressed result store.

One :class:`ResultStore` is a single-file database mapping
``(fingerprint, kind, variant)`` to a JSON payload:

=============  =============================================  ============
kind           variant                                        payload
=============  =============================================  ============
``counts``     ``""``                                         ``up``/``down`` DP arrays, canonical gate order
``classify``   ``<CRITERION>|<sort key>``                     accepted/total/edges + optional per-lead counts
``sort``       ``heu1`` / ``heu2``                            rank array, canonical lead order
``tightness``  ``<schema>|<CRITERION>|<sort>|<budget>``       exact-vs-approximate verdict counts per circuit
``signoff``    ``<schema>|<delay digest>|k=N`` / ``slack=T``  accepted robust-path set as canonical lead positions
``cone``       ``<CRITERION>|<sort>|<budget>``                one output cone's total/accepted/edges/elapsed
=============  =============================================  ============

A ``cone`` row is keyed by the *cone* fingerprint (``rdcfp1:``, see
:mod:`repro.incremental.conefp`) rather than a whole-circuit one, so an
edited netlist reuses every untouched cone's rows.

Every row is stamped with :data:`~repro.store.fingerprint.SCHEMA_VERSION`;
reads only ever see rows of the *current* schema, so a payload-format or
fingerprint-algorithm change can never serve stale data — old rows just
stop being visible until ``gc`` reclaims them.

Concurrency: the database runs in WAL mode with a busy timeout, so the
``jobs=N`` process pool of the experiment harness and the threads of the
analysis service can all read and write one store file concurrently.
Connections are opened lazily *per process* (the store object pickles as
its path, and a fork is detected by PID), opening and every statement
are retried on ``database is locked``/``busy``, and a corrupted or
undecodable payload is deleted and reported as a miss — a store can
make a run faster, never wrong, and never dead.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import StoreError
from repro.obs import get_registry
from repro.store.fingerprint import SCHEMA_VERSION

__all__ = ["STORE_FORMAT_VERSION", "ResultStore", "StoreStats"]

#: On-disk layout version, stamped into ``PRAGMA user_version``.  v3
#: keeps cone rows in ``entries`` as ``kind="cone"``; opening a v1 file
#: (no cone rows) or a v2 file (cone rows in a second table) migrates it
#: in place.
STORE_FORMAT_VERSION = 3

_SCHEMA_SQL = """
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

#: seconds SQLite's own busy handler waits on a held lock
_BUSY_TIMEOUT = 10.0
#: bounded retry for statements that hit a held write lock even after
#: SQLite's own busy timeout
_LOCK_RETRIES = 8
_LOCK_SLEEP = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


@dataclass(frozen=True)
class StoreStats:
    """A snapshot of one store file, for ``repro-rd cache stats``.

    ``entries``/``by_kind`` count the whole-circuit rows; ``kind="cone"``
    rows are broken out separately so cache pressure from fine-grained
    ECO rows is visible at a glance.  The rendered ``entries:`` line
    counts both, with ``cone=N`` among its kinds.
    """

    path: str
    entries: int
    by_kind: "dict[str, int]"
    stale_entries: int  #: rows of other schema versions (gc reclaims)
    total_hits: int
    size_bytes: int
    whole_payload_bytes: int = 0
    cone_entries: int = 0
    cone_stale: int = 0
    cone_hits: int = 0
    cone_payload_bytes: int = 0

    def render(self) -> str:
        counts = dict(self.by_kind)
        if self.cone_entries:
            counts["cone"] = self.cone_entries
        kinds = ", ".join(
            f"{kind}={count}" for kind, count in sorted(counts.items())
        )
        return "\n".join(
            [
                f"store:   {self.path}",
                f"entries: {self.entries + self.cone_entries} "
                f"({kinds or 'empty'})",
                f"whole:   {self.entries} entries, "
                f"{self.whole_payload_bytes:,} payload bytes, "
                f"{self.total_hits} hits",
                f"cone:    {self.cone_entries} entries, "
                f"{self.cone_payload_bytes:,} payload bytes, "
                f"{self.cone_hits} hits",
                f"stale:   {self.stale_entries + self.cone_stale} "
                "(other schema versions)",
                f"hits:    {self.total_hits + self.cone_hits}",
                f"size:    {self.size_bytes:,} bytes",
                f"schema:  {SCHEMA_VERSION}",
            ]
        )


class ResultStore:
    """A content-addressed cache of analysis results in one SQLite file.

    ``path`` may be ``":memory:"`` for tests — such a store is private
    to the process that opened it (workers forked by the harness see an
    empty database).
    """

    def __init__(self, path: "str | Path"):
        self.path = str(path)
        self._local_conn: "sqlite3.Connection | None" = None
        self._pid = -1
        self._lock = threading.Lock()

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        # while another process opens the same fresh file, opening can
        # fail with "database is locked" at once, without waiting out the
        # busy timeout, so it retries like any statement
        return self._retrying(
            self._open, f"cannot open result store {self.path!r}"
        )

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            timeout=_BUSY_TIMEOUT,
            check_same_thread=False,
            isolation_level=None,  # autocommit: every statement durable
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            if conn.execute("PRAGMA user_version").fetchone()[0] < (
                STORE_FORMAT_VERSION
            ):
                _migrate(conn)
        except BaseException:
            conn.close()
            raise
        return conn

    def _retrying(self, action, what: str):
        """``action()`` with bounded retry on a held write lock; every
        other SQLite error is a :class:`StoreError` naming ``what``."""
        for attempt in range(_LOCK_RETRIES):
            try:
                return action()
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == _LOCK_RETRIES - 1:
                    raise StoreError(f"{what}: {exc}") from exc
                time.sleep(_LOCK_SLEEP * (attempt + 1))
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"{what}: {exc}") from exc
        raise AssertionError("unreachable")

    @property
    def _conn(self) -> sqlite3.Connection:
        # callers hold self._lock, so two threads never both connect (and
        # migrate); reopen after fork: connections must not cross processes
        if self._local_conn is None or self._pid != os.getpid():
            self._local_conn = self._connect()
            self._pid = os.getpid()
        return self._local_conn

    def close(self) -> None:
        with self._lock:
            if self._local_conn is not None and self._pid == os.getpid():
                self._local_conn.close()
            self._local_conn = None
            self._pid = -1

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self):
        # pickles as its path: each pool worker opens its own connection
        return (type(self), (self.path,))

    def _execute(self, sql: str, params: tuple = ()):
        """One statement with bounded retry on a held write lock."""
        with self._lock:
            return self._retrying(
                lambda: self._conn.execute(sql, params),
                f"result store {self.path!r}",
            )

    # -- the content-addressed API -------------------------------------
    def get(self, fingerprint: str, kind: str, variant: str = "") -> "dict | None":
        """The payload stored under this key at the current schema
        version, or ``None``.  An undecodable payload is deleted and
        reported as a miss (never served, never fatal)."""
        registry = get_registry()
        # cone rows keep their own store.cone_* counters
        counter = "store.cone_" if kind == "cone" else "store."
        registry.counter(counter + "gets").inc()
        started = time.perf_counter()
        row = self._execute(
            "SELECT payload FROM entries WHERE fingerprint=? AND kind=? "
            "AND variant=? AND schema=?",
            (fingerprint, kind, variant, SCHEMA_VERSION),
        ).fetchone()
        if row is None:
            registry.counter(counter + "misses").inc()
            registry.histogram("store.get_seconds").observe(
                time.perf_counter() - started
            )
            return None
        try:
            payload = json.loads(row[0])
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except (ValueError, TypeError):
            registry.counter("store.corrupt_entries").inc()
            registry.counter(counter + "misses").inc()
            self.delete(fingerprint, kind, variant)
            return None
        self._execute(
            "UPDATE entries SET hits=hits+1, last_used=? WHERE fingerprint=? "
            "AND kind=? AND variant=? AND schema=?",
            (time.time(), fingerprint, kind, variant, SCHEMA_VERSION),
        )
        registry.counter(counter + "hits").inc()
        registry.histogram("store.get_seconds").observe(
            time.perf_counter() - started
        )
        return payload

    def put(self, fingerprint: str, kind: str, variant: str, payload: dict) -> None:
        """Insert or replace one entry (stamped with the current schema)."""
        registry = get_registry()
        counter = "store.cone_" if kind == "cone" else "store."
        registry.counter(counter + "puts").inc()
        started = time.perf_counter()
        now = time.time()
        self._execute(
            "INSERT OR REPLACE INTO entries "
            "(fingerprint, kind, variant, schema, payload, created, "
            "last_used, hits) VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
            (
                fingerprint,
                kind,
                variant,
                SCHEMA_VERSION,
                json.dumps(payload, sort_keys=True, separators=(",", ":")),
                now,
                now,
            ),
        )
        registry.histogram("store.put_seconds").observe(
            time.perf_counter() - started
        )

    def delete(self, fingerprint: str, kind: str, variant: str = "") -> None:
        self._execute(
            "DELETE FROM entries WHERE fingerprint=? AND kind=? AND variant=?",
            (fingerprint, kind, variant),
        )

    # -- maintenance (the ``repro-rd cache`` subcommand) ----------------
    def stats(self) -> StoreStats:
        by_kind: "dict[str, int]" = {}
        hits = whole_bytes = 0
        cones = cone_hits = cone_bytes = 0
        for kind, count, kind_hits, kind_bytes in self._execute(
            "SELECT kind, COUNT(*), COALESCE(SUM(hits), 0), "
            "COALESCE(SUM(LENGTH(payload)), 0) FROM entries WHERE schema=? "
            "GROUP BY kind",
            (SCHEMA_VERSION,),
        ).fetchall():
            if kind == "cone":
                cones, cone_hits, cone_bytes = count, kind_hits, kind_bytes
            else:
                by_kind[kind] = count
                hits += kind_hits
                whole_bytes += kind_bytes
        stale, cone_stale = self._execute(
            "SELECT COUNT(*), COALESCE(SUM(kind='cone'), 0) FROM entries "
            "WHERE schema != ?",
            (SCHEMA_VERSION,),
        ).fetchone()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return StoreStats(
            path=self.path,
            entries=sum(by_kind.values()),
            by_kind=by_kind,
            stale_entries=stale - cone_stale,
            total_hits=hits,
            size_bytes=size,
            whole_payload_bytes=whole_bytes,
            cone_entries=cones,
            cone_stale=cone_stale,
            cone_hits=cone_hits,
            cone_payload_bytes=cone_bytes,
        )

    def gc(self, max_age_days: "float | None" = None) -> int:
        """Reclaim stale rows: every other-schema entry, plus (when
        ``max_age_days`` is given) entries not used for that long.
        Returns the number of rows removed."""
        removed = self._execute(
            "DELETE FROM entries WHERE schema != ?", (SCHEMA_VERSION,)
        ).rowcount
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            removed += self._execute(
                "DELETE FROM entries WHERE last_used < ?", (cutoff,)
            ).rowcount
        self._execute("VACUUM")
        return removed

    def clear(self) -> int:
        """Drop every entry (all schema versions).  Returns the count."""
        removed = self._execute("DELETE FROM entries").rowcount
        self._execute("VACUUM")
        return removed

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"


def _migrate(conn: sqlite3.Connection) -> None:
    """Bring a fresh, v1 or v2 file to :data:`STORE_FORMAT_VERSION`.

    Runs from :meth:`ResultStore._connect`, under the store's lock.  The
    version is re-read inside a write transaction, so when several
    processes open one old file at once exactly one of them migrates.
    A v2 file's ``cone_entries`` rows move into ``entries`` as
    ``kind="cone"`` with their payload, hits and timestamps intact.
    """
    conn.execute("BEGIN IMMEDIATE")
    try:
        stale = conn.execute("PRAGMA user_version").fetchone()[0] < (
            STORE_FORMAT_VERSION
        )
        if stale:
            conn.execute(_SCHEMA_SQL)
            if conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' "
                "AND name='cone_entries'"
            ).fetchone():
                conn.execute(
                    "INSERT OR IGNORE INTO entries SELECT cone_fp, 'cone', "
                    "variant, schema, payload, created, last_used, hits "
                    "FROM cone_entries"
                )
                conn.execute("DROP TABLE cone_entries")
            conn.execute(f"PRAGMA user_version={STORE_FORMAT_VERSION:d}")
        conn.execute("COMMIT")
    except BaseException:
        if conn.in_transaction:
            conn.execute("ROLLBACK")
        raise
    if stale:
        get_registry().counter("store.migrations").inc()

def as_store(store: "ResultStore | str | Path | None") -> "ResultStore | None":
    """Normalize a ``store=`` argument (path or instance or None)."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)
