"""Chaos: the persistent store composed with checkpoint/resume under
injected worker crashes.  A run that dies partway and is resumed with
``--resume --store`` must produce tables byte-identical to a clean
straight-through run — and the store must never serve results written
by a worker that crashed mid-row."""

import os

import pytest

from repro.circuit.examples import mux_circuit, paper_example_circuit
from repro.experiments import table1
from repro.experiments.harness import run_table1_rows
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.store.db import ResultStore

pytestmark = pytest.mark.chaos


def _circuits():
    return [paper_example_circuit(), mux_circuit()]


# -- fault hooks (module-level: must be picklable) ----------------------


def kill_mux_first_attempt(label, attempt):
    if "mux" in label and attempt == 0:
        os._exit(3)


def kill_always(label, attempt):
    os._exit(3)


class TestStoreWithResume:
    def test_crashed_run_resumed_with_store_is_byte_identical(self, tmp_path):
        """Crash a worker, leave a partial checkpoint + partially-warm
        store, resume: the final rendered table matches a clean run."""
        store = str(tmp_path / "store.sqlite")
        ckpt = tmp_path / "t1.jsonl"
        straight, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))

        runner = TaskRunner(
            jobs=2,
            fault_hook=kill_mux_first_attempt,
            max_retries=0,
            backoff_base=0.01,
            degrade_in_process=False,
        )
        broken = run_table1_rows(
            _circuits(), checkpoint=str(ckpt), store=store, runner=runner
        )
        assert any(isinstance(row, RowFailure) for row in broken)

        resumed, rows = table1.run(
            _circuits(),
            runner=TaskRunner(jobs=2),
            checkpoint=str(ckpt),
            resume=True,
            store=store,
        )
        assert resumed.render() == straight.render()
        assert not any(isinstance(row, RowFailure) for row in rows)

    def test_warm_rerun_after_crash_recovery_is_byte_identical(self, tmp_path):
        """After crash + resume, a third fully-warm run must still be
        byte-identical and 100% served from the store."""
        store = str(tmp_path / "store.sqlite")
        ckpt = tmp_path / "t1.jsonl"
        straight, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))

        runner = TaskRunner(
            jobs=2,
            fault_hook=kill_mux_first_attempt,
            max_retries=0,
            backoff_base=0.01,
            degrade_in_process=False,
        )
        run_table1_rows(
            _circuits(), checkpoint=str(ckpt), store=store, runner=runner
        )
        table1.run(
            _circuits(), runner=TaskRunner(jobs=2), checkpoint=str(ckpt),
            resume=True, store=store,
        )

        warm, rows = table1.run(
            _circuits(), runner=TaskRunner(jobs=2), store=store,
        )
        assert warm.render() == straight.render()
        for row in rows:
            assert row.session_stats["store_hits"] > 0
            assert row.session_stats["store_misses"] == 0
            assert row.session_stats["count_paths_calls"] == 0

    def test_all_workers_crashing_leaves_store_unpoisoned(self, tmp_path):
        """Workers killed on every attempt produce only RowFailures;
        whatever partial entries landed in the store must still yield a
        byte-identical table on the next healthy run."""
        store = str(tmp_path / "store.sqlite")
        straight, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))

        runner = TaskRunner(
            jobs=2,
            fault_hook=kill_always,
            max_retries=0,
            backoff_base=0.01,
            degrade_in_process=False,
        )
        broken = run_table1_rows(_circuits(), store=store, runner=runner)
        assert all(isinstance(row, RowFailure) for row in broken)

        healthy, rows = table1.run(
            _circuits(), runner=TaskRunner(jobs=2), store=store,
        )
        assert healthy.render() == straight.render()
        assert not any(isinstance(row, RowFailure) for row in rows)

    def test_store_survives_crashes_with_valid_entries_only(self, tmp_path):
        """Every entry a crash-then-retry run writes is readable and of
        the current schema (SQLite WAL keeps the file consistent even
        when a writer process is killed)."""
        store_path = tmp_path / "store.sqlite"
        runner = TaskRunner(
            jobs=2, fault_hook=kill_mux_first_attempt, backoff_base=0.01
        )
        rows = run_table1_rows(_circuits(), store=str(store_path), runner=runner)
        assert not any(isinstance(row, RowFailure) for row in rows)
        with ResultStore(store_path) as store:
            stats = store.stats()
            assert stats.stale_entries == 0
            assert stats.entries > 0
