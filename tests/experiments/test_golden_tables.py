"""Golden regression: the flat-IR engine reproduces the committed tables.

``tests/golden/tables_fingerprints.json`` was captured with the
pre-refactor object-graph engine.  Every fingerprint and every Table
I/III cell must come out *byte-identical* (exact float equality, not
approximate) from the bitset kernel, at ``jobs=1`` (in-process) and
``jobs=4`` (process pool — also exercising the flat pickling contract).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.harness import run_table1_rows, run_table3_rows
from repro.experiments.supervisor import TaskRunner
from repro.gen.suite import get_circuit, table1_suite, table3_suite
from repro.store.db import ResultStore
from repro.store.fingerprint import fingerprint

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "tables_fingerprints.json")
    .read_text()
)

#: quick-subset circuits — small enough for unmarked tier-1 tests
_QUICK_TABLE1 = ("s432-rand", "s499-ecc")


def _table1_cells(row) -> dict:
    return {
        "name": row.name,
        "total_logical": row.total_logical,
        "fus_percent": row.fus_percent,
        "heu1_percent": row.heu1_percent,
        "heu2_percent": row.heu2_percent,
        "heu2_inverse_percent": row.heu2_inverse_percent,
    }


def _table3_cells(row) -> dict:
    return {
        "name": row.name,
        "total_logical": row.total_logical,
        "baseline_percent": row.baseline_percent,
        "heu2_percent": row.heu2_percent,
    }


def _golden_rows(table: str) -> dict:
    return {row["name"]: row for row in GOLDEN[table]}


class TestGoldenFingerprints:
    def test_all_suite_fingerprints_unchanged(self):
        for name, expected in GOLDEN["fingerprints"].items():
            assert fingerprint(get_circuit(name)) == expected, name

    def test_fingerprint_count(self):
        assert len(GOLDEN["fingerprints"]) == 17


class TestGoldenTable1Quick:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_quick_rows_match_golden(self, jobs):
        golden = _golden_rows("table1")
        circuits = [get_circuit(name) for name in _QUICK_TABLE1]
        rows = run_table1_rows(circuits, runner=TaskRunner(jobs=jobs))
        for row in rows:
            assert _table1_cells(row) == golden[row.name]

    def test_warm_store_rows_and_fingerprints_stable(self, tmp_path):
        golden = _golden_rows("table1")
        store_path = tmp_path / "warm.sqlite"
        circuits = [get_circuit(name) for name in _QUICK_TABLE1]
        cold = run_table1_rows(circuits, store=str(store_path))
        warm = run_table1_rows(
            [get_circuit(name) for name in _QUICK_TABLE1],
            store=str(store_path),
        )
        for row in cold + warm:
            assert _table1_cells(row) == golden[row.name]
        # the warm pass hit the store under the *same* fingerprints the
        # cold pass wrote — i.e. rebuilt circuits re-key identically
        with ResultStore(store_path) as store:
            fps = {
                row[0]
                for row in store._execute(
                    "SELECT DISTINCT fingerprint FROM entries"
                ).fetchall()
            }
        assert fps == {
            GOLDEN["fingerprints"][name] for name in _QUICK_TABLE1
        }


@pytest.mark.slow
class TestGoldenFullSuite:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_table1_all_nine_circuits(self, jobs):
        golden = _golden_rows("table1")
        rows = run_table1_rows(table1_suite(), runner=TaskRunner(jobs=jobs))
        assert [row.name for row in rows] == [
            row["name"] for row in GOLDEN["table1"]
        ]
        for row in rows:
            assert _table1_cells(row) == golden[row.name]
        # Table II is the same rows joined with the exact path counts —
        # golden-equal rows render a golden-equal table
        from repro.experiments import table2

        text = table2.run(rows=rows, include_count_only=True).render()
        for row in GOLDEN["table1"]:
            assert f"{row['total_logical']:,}" in text

    def test_table3_all_eight_circuits_serial(self):
        golden = _golden_rows("table3")
        rows = run_table3_rows(table3_suite(), runner=TaskRunner(jobs=1))
        assert [row.name for row in rows] == [
            row["name"] for row in GOLDEN["table3"]
        ]
        for row in rows:
            assert _table3_cells(row) == golden[row.name]

    def test_table3_smallest_circuits_pooled(self):
        # the full Table-III suite is dominated by the exact baseline
        # (not the classifier under test), so the pooled parity check
        # runs on the three smallest circuits only
        golden = _golden_rows("table3")
        names = ("apex-a", "z5xp-b", "bw-d")
        rows = run_table3_rows(
            [get_circuit(name) for name in names], runner=TaskRunner(jobs=4)
        )
        for row in rows:
            assert _table3_cells(row) == golden[row.name]
