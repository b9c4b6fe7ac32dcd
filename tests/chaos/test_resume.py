"""Checkpoint/resume under faults: a run killed partway through must be
resumable with ``--resume`` semantics — only missing rows recomputed,
final tables byte-identical to a straight-through run."""

import json

import pytest

from repro.circuit.examples import mux_circuit, paper_example_circuit
from repro.experiments import table1
from repro.experiments.harness import run_table1_rows
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.experiments.sweep import sweep_family
from repro.gen.adders import ripple_carry_adder

pytestmark = pytest.mark.chaos


def _circuits():
    return [paper_example_circuit(), mux_circuit()]


class TestTable1Resume:
    def test_resume_from_partial_checkpoint(self, tmp_path):
        """Simulate a run killed after the first row: the checkpoint
        holds one circuit; the resumed run computes only the other and
        the rendered table matches a straight-through run byte for
        byte."""
        ckpt = tmp_path / "table1.jsonl"
        run_table1_rows(_circuits()[:1], checkpoint=str(ckpt))
        assert len(ckpt.read_text().splitlines()) == 1

        resumed, _ = table1.run(
            _circuits(), checkpoint=str(ckpt), resume=True
        )
        straight, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))
        assert resumed.render() == straight.render()
        # the already-done circuit was not recomputed → not re-recorded
        records = ckpt.read_text().splitlines()
        assert len(records) == 2
        assert len({json.loads(line)["key"] for line in records}) == 2

    def test_torn_tail_line_is_recomputed(self, tmp_path):
        """A SIGKILL can tear the last JSONL line; resume must skip it
        and recompute that row rather than crash or trust garbage."""
        ckpt = tmp_path / "table1.jsonl"
        run_table1_rows(_circuits(), checkpoint=str(ckpt))
        lines = ckpt.read_text().splitlines()
        ckpt.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        resumed, _ = table1.run(
            _circuits(), checkpoint=str(ckpt), resume=True
        )
        straight, _ = table1.run(_circuits(), runner=TaskRunner(jobs=1))
        assert resumed.render() == straight.render()

    def test_without_resume_flag_checkpoint_is_ignored_for_skipping(
        self, tmp_path
    ):
        ckpt = tmp_path / "table1.jsonl"
        run_table1_rows(_circuits(), checkpoint=str(ckpt))
        run_table1_rows(_circuits(), checkpoint=str(ckpt))  # no resume
        # recomputed and re-recorded: 2 circuits × 2 runs
        assert len(ckpt.read_text().splitlines()) == 4


def _kill_worker(label, attempt):
    import os

    os._exit(3)


class TestSweepResume:
    def test_killed_sweep_resumes_only_missing_points(self, tmp_path):
        ckpt = tmp_path / "sweep.jsonl"
        straight = sweep_family(ripple_carry_adder, [2, 3, 4])

        # "kill" the run partway: points 2 and 3 land in the checkpoint,
        # then the run dies before measuring 4
        sweep_family(ripple_carry_adder, [2, 3], checkpoint=str(ckpt))

        built = []

        def family(n):
            built.append(n)
            return ripple_carry_adder(n)

        resumed = sweep_family(
            family, [2, 3, 4], checkpoint=str(ckpt), resume=True
        )
        assert built == [4]  # checkpointed circuits are not even built
        assert [
            (p.parameter, p.gates, p.total_logical, p.accepted)
            for p in resumed
        ] == [
            (p.parameter, p.gates, p.total_logical, p.accepted)
            for p in straight
        ]

    def test_failed_points_are_not_checkpointed(self, tmp_path):
        """A point that ends as RowFailure must not be recorded — a
        resume should retry it, not trust the failure."""
        ckpt = tmp_path / "sweep.jsonl"
        runner = TaskRunner(
            jobs=2,
            fault_hook=_kill_worker,
            max_retries=0,
            backoff_base=0.01,
            degrade_in_process=False,
        )
        broken = sweep_family(
            ripple_carry_adder, [2, 3], checkpoint=str(ckpt), runner=runner
        )
        assert all(isinstance(p, RowFailure) for p in broken)
        assert not ckpt.exists() or ckpt.read_text() == ""

        resumed = sweep_family(
            ripple_carry_adder, [2, 3], checkpoint=str(ckpt), resume=True
        )
        straight = sweep_family(ripple_carry_adder, [2, 3])
        assert [
            (p.parameter, p.total_logical, p.accepted) for p in resumed
        ] == [(p.parameter, p.total_logical, p.accepted) for p in straight]
