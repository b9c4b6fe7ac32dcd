"""Parallel experiment harness: jobs>1 must change wall-clock only.

Every fan-out path (Table I/III rows, per-cone classification through
:func:`repro.incremental.cone_classify`, the coverage study, scaling
sweeps) is compared field-by-field against its deterministic ``jobs=1``
fallback on small circuits."""

import pytest

from repro.circuit.examples import mux_circuit, paper_example_circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import classify
from repro.experiments import table1
from repro.experiments.coverage_study import compare_sorts
from repro.experiments.harness import run_table1_rows, run_table3_rows
from repro.experiments.supervisor import TaskRunner
from repro.experiments.sweep import sweep_family
from repro.gen.adders import ripple_carry_adder
from repro.gen.random_logic import random_dag
from repro.incremental import cone_classify
from repro.sorting.heuristics import heuristic1_sort
from repro.sorting.input_sort import InputSort


def _circuits():
    return [paper_example_circuit(), mux_circuit()]


_PERCENT_FIELDS = (
    "name",
    "total_logical",
    "fus_percent",
    "heu1_percent",
    "heu2_percent",
    "heu2_inverse_percent",
)


class TestTableRows:
    def test_table1_rows_identical_across_job_counts(self):
        serial = run_table1_rows(_circuits())
        parallel = run_table1_rows(_circuits(), runner=TaskRunner(jobs=2))
        assert len(serial) == len(parallel) == 2
        for s, p in zip(serial, parallel):
            for field in _PERCENT_FIELDS:
                assert getattr(s, field) == getattr(p, field), field

    def test_table1_rendered_table_is_byte_identical(self):
        """The printed Table I carries only RD%% columns, so the whole
        rendering must match byte-for-byte across job counts."""
        table_serial, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))
        table_parallel, _ = table1.run(_circuits(), runner=TaskRunner(jobs=2))
        assert table_serial.render() == table_parallel.render()

    def test_table3_rows_identical_across_job_counts(self):
        serial = run_table3_rows(_circuits())
        parallel = run_table3_rows(_circuits(), runner=TaskRunner(jobs=2))
        for s, p in zip(serial, parallel):
            assert s.name == p.name
            assert s.total_logical == p.total_logical
            assert s.baseline_percent == p.baseline_percent
            assert s.heu2_percent == p.heu2_percent

    def test_single_circuit_short_circuits_the_pool(self):
        rows = run_table1_rows(
            [paper_example_circuit()], runner=TaskRunner(jobs=8),
        )
        assert len(rows) == 1
        assert rows[0].heu2_percent == 37.5


class TestConeClassification:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("criterion", [Criterion.FS, Criterion.NR])
    def test_cone_fanout_matches_whole_circuit(self, criterion, jobs):
        circuit = random_dag(5, 14, seed=321)
        whole = classify(circuit, criterion)
        report = cone_classify(
            circuit, criterion, runner=TaskRunner(jobs=jobs),
        )
        assert report.result.accepted == whole.accepted
        assert report.result.total_logical == whole.total_logical
        assert report.result.circuit_name == circuit.name
        assert report.cones_total == len(circuit.outputs)

    def test_cone_fanout_with_per_cone_heuristic_sort(self):
        # Per-cone Heuristic-1 sorts (the paper's per-output application)
        # stay sound: never fewer RD paths than plain FS.
        circuit = random_dag(5, 14, seed=987)
        fs = cone_classify(circuit, Criterion.FS, runner=TaskRunner(jobs=2))
        sigma = cone_classify(
            circuit, Criterion.SIGMA_PI, sort="heu1",
            runner=TaskRunner(jobs=2),
        )
        assert sigma.result.accepted <= fs.result.accepted
        assert sigma.result.total_logical == fs.result.total_logical


class TestStudiesAndSweeps:
    def test_compare_sorts_identical_across_job_counts(self):
        circuit = paper_example_circuit()
        sorts = {
            "pin": InputSort.pin_order(circuit),
            "heu1": heuristic1_sort(circuit),
        }
        serial = compare_sorts(circuit, sorts, sample_size=8, seed=3)
        parallel = compare_sorts(
            circuit, sorts, sample_size=8, seed=3, runner=TaskRunner(jobs=2),
        )
        assert serial.keys() == parallel.keys()
        for label in serial:
            assert serial[label] == parallel[label], label

    def test_sweep_family_identical_across_job_counts(self):
        serial = sweep_family(ripple_carry_adder, [2, 3, 4])
        parallel = sweep_family(
            ripple_carry_adder, [2, 3, 4], runner=TaskRunner(jobs=2),
        )
        for s, p in zip(serial, parallel):
            assert s.parameter == p.parameter
            assert s.gates == p.gates
            assert s.total_logical == p.total_logical
            assert s.accepted == p.accepted

    def test_sweep_family_accepts_lambda_families(self):
        # Circuits are built serially, so non-picklable families are fine
        # even with a process pool.
        points = sweep_family(
            lambda n: ripple_carry_adder(n), [2, 3], runner=TaskRunner(jobs=2),
        )
        assert [p.parameter for p in points] == [2, 3]


def test_cli_tables_expose_jobs_flag():
    from repro.cli import build_parser

    parser = build_parser()
    for command in ("table1", "table2", "table3"):
        args = parser.parse_args([command, "--jobs", "4"])
        assert args.jobs == 4
        assert parser.parse_args([command]).jobs == 1
