"""Unit tests for JSON experiment reports."""

import json

from repro.circuit.examples import paper_example_circuit
from repro.experiments.harness import run_table1_row, run_table3_row
from repro.experiments.report import table1_to_dict, table3_to_dict
from repro.util.serialize import to_json


def test_table1_json_round_trip():
    rows = [run_table1_row(paper_example_circuit())]
    payload = table1_to_dict(rows)
    parsed = json.loads(to_json(payload))
    assert parsed["table"] == "I"
    (row,) = parsed["rows"]
    assert row["circuit"] == "paper_example"
    assert row["total_logical_paths"] == 8
    assert row["heu2_percent"] == 37.5
    assert row["shape_violations"] == []


def test_table3_json_round_trip():
    rows = [run_table3_row(paper_example_circuit())]
    parsed = json.loads(to_json(table3_to_dict(rows)))
    assert parsed["table"] == "III"
    (row,) = parsed["rows"]
    assert row["baseline_rd_percent"] == 37.5
    assert row["quality_gap_percent"] == 0.0
    assert row["speedup"] >= 0
