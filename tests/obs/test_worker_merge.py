"""Cross-worker telemetry: pool tasks ship their metrics/trace deltas
back and the parent merges them deterministically."""

import pytest

from repro.experiments.harness import run_table1_rows
from repro.experiments.supervisor import TaskRunner
from repro.gen.suite import get_circuit
from repro.obs import get_buffer, get_registry, span


def _instrumented_task(payload: int) -> int:
    """Top-level (picklable) worker: bumps telemetry, returns a value."""
    with span("test.task", payload=payload):
        get_registry().counter("test.bumps").inc(payload)
        get_registry().histogram("test.seconds").observe(payload / 100.0)
    return payload * 2


class TestPoolMerge:
    def test_worker_metrics_merge_into_parent(self):
        results = TaskRunner(jobs=2).map(_instrumented_task, [1, 2, 3, 4])
        assert results == [2, 4, 6, 8]
        snap = get_registry().snapshot()
        assert snap["counters"]["test.bumps"] == 10
        assert snap["histograms"]["test.seconds"]["count"] == 4

    def test_worker_spans_merge_into_parent_buffer(self):
        TaskRunner(jobs=2).map(_instrumented_task, [1, 2, 3])
        names = [e["name"] for e in get_buffer().snapshot()]
        assert names.count("test.task") == 3

    def test_totals_match_serial_run(self):
        serial = TaskRunner(jobs=1).map(_instrumented_task, [5, 6, 7])
        serial_snap = get_registry().snapshot()
        get_registry().reset()
        pooled = TaskRunner(jobs=2).map(_instrumented_task, [5, 6, 7])
        pooled_snap = get_registry().snapshot()
        assert serial == pooled
        assert (
            serial_snap["counters"]["test.bumps"]
            == pooled_snap["counters"]["test.bumps"]
            == 18
        )
        assert (
            serial_snap["histograms"]["test.seconds"]["count"]
            == pooled_snap["histograms"]["test.seconds"]["count"]
            == 3
        )


def _stable_fields(row) -> tuple:
    return (
        row.name,
        row.total_logical,
        row.fus_percent,
        row.heu1_percent,
        row.heu2_percent,
        row.heu2_inverse_percent,
    )


@pytest.mark.slow
class TestHarnessMerge:
    def test_table1_rows_identical_and_metrics_nonzero(self, tmp_path):
        def circuits():
            return [get_circuit("c17"), get_circuit("xcmp16")]

        serial = run_table1_rows(circuits(), runner=TaskRunner(jobs=1))
        get_registry().reset()
        store = str(tmp_path / "s.sqlite")
        pooled = run_table1_rows(
            circuits(), runner=TaskRunner(jobs=2), store=store,
        )
        assert list(map(_stable_fields, serial)) == list(
            map(_stable_fields, pooled)
        )
        # worker-side telemetry (table builds, store write-backs)
        # arrived in the parent registry via the merge path
        counters = get_registry().snapshot()["counters"]
        assert counters["session.tables_built"] >= 2
        assert counters["store.puts"] >= 1
