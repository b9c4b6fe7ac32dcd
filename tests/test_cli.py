"""End-to-end tests of the CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, load_circuit, main
from repro.obs import get_registry

S27 = Path(__file__).resolve().parents[1] / "examples" / "s27_timing.bench"


class TestLoadCircuit:
    def test_suite_name(self):
        assert load_circuit("s432-rand").name == "s432-rand"

    def test_bench_file(self, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        circuit = load_circuit(str(path))
        assert circuit.name == "c"

    def test_pla_file(self, tmp_path):
        path = tmp_path / "c.pla"
        path.write_text(".i 2\n.o 1\n11 1\n.e\n")
        circuit = load_circuit(str(path))
        assert len(circuit.inputs) == 2

    def test_unknown(self):
        with pytest.raises(KeyError):
            load_circuit("never-heard-of-it")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s499-ecc" in out

    def test_info(self, capsys):
        assert main(["info", "s432-rand"]) == 0
        out = capsys.readouterr().out
        assert "logical paths" in out

    def test_classify_fs(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["classify", str(path), "--criterion", "fs"]) == 0
        out = capsys.readouterr().out
        assert "FS" in out

    def test_classify_sigma_sorts(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        for sort in ("pin", "heu1", "heu2", "heu2inv", "random"):
            assert main(["classify", str(path), "--sort", sort]) == 0
        out = capsys.readouterr().out
        assert "SIGMA_PI" in out

    def test_baseline(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["baseline", str(path), "--method", "exact"]) == 0
        out = capsys.readouterr().out
        assert "37.50% RD" in out

    def test_testgen(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["testgen", str(path)]) == 0
        out = capsys.readouterr().out
        assert "robust tests" in out
        assert "<" in out  # at least one two-pattern test printed

    def test_select(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["select", str(path), "--fraction", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "RD filtering" in out

    def test_sta(self, capsys):
        assert main(["sta", "xcmp16", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "critical delay" in out
        assert "slowest logical paths" in out

    def test_atpg(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["atpg", str(path), "--show-redundant"]) == 0
        out = capsys.readouterr().out
        assert "patterns detect" in out
        assert "redundant:" in out

    def test_dot(self, capsys, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n"
            "m = AND(b, c)\ny = OR(a, m, c)\n"
        )
        assert main(["dot", str(path), "--stabilize", "111"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "color=red" in out

    def test_dot_bad_vector(self, tmp_path):
        path = tmp_path / "c.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
        with pytest.raises(SystemExit):
            main(["dot", str(path), "--stabilize", "10"])

    def test_table1_json_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--json"])
        assert args.json

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_parser_help_lists_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("info", "classify", "baseline", "table1"):
            assert cmd in text


class TestSupervisionFlags:
    @pytest.mark.parametrize("bad", ["0", "-1", "-8"])
    def test_nonpositive_jobs_rejected_by_argparse(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table1", "--jobs", bad])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--jobs", "two"])
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["table1", "table2", "table3"])
    def test_supervision_flags_parse(self, table):
        args = build_parser().parse_args(
            [
                table,
                "--jobs", "4",
                "--checkpoint", "rows.jsonl",
                "--resume",
                "--task-budget", "90",
                "--retries", "5",
            ]
        )
        assert args.jobs == 4
        assert args.checkpoint == "rows.jsonl"
        assert args.resume
        assert args.task_timeout == 90.0
        assert args.max_retries == 5

    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.experiments.table1 as table1_mod

        def interrupted(**_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(table1_mod, "main", interrupted)
        assert main(["table1"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err


class TestSupervisionReachesEveryPool:
    """``--task-budget`` and ``--retries`` act wherever ``--jobs`` does:
    a budget no pool task can meet times every task out, the in-process
    rerun answers, and the answer is the ``--jobs 1`` one."""

    #: commands whose pool gets at least two tasks (two cones, three
    #: verdict chunks, four capture domains)
    POOLED = {
        "classify": ["classify", "c17", "--criterion", "fs"],
        "reanalyze": ["reanalyze", "c17", "c17", "--criterion", "fs"],
        "tightness": ["tightness", "s880-alu"],
        "signoff": ["signoff", str(S27), "--k", "5"],
    }

    @staticmethod
    def _answer(out: str) -> list:
        """The printed answer: no metrics, session summary or timing."""
        text = out.split("-- metrics --")[0]
        return [
            re.sub(r"\d+\.\d+s\b", "", line)
            for line in text.splitlines()
            if not line.startswith("passes=")
        ]

    @pytest.mark.parametrize("command", sorted(POOLED))
    def test_budget_and_retries_reach_the_pool(
        self, command, tmp_path, capsys
    ):
        argv = self.POOLED[command]
        if command == "reanalyze":
            argv = argv + ["--store", str(tmp_path / "serial.sqlite")]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        if command == "reanalyze":
            argv = argv[:-1] + [str(tmp_path / "pooled.sqlite")]
        get_registry().reset()
        assert main(argv + [
            "--jobs", "2", "--task-budget", "0.000001", "--retries", "0",
            "-v",
        ]) == 0
        pooled = capsys.readouterr().out
        assert re.search(r"^\s*supervisor\.timeout\s+[1-9]", pooled, re.M)
        assert self._answer(pooled) == self._answer(serial)

    def test_baseline_rejects_every_supervision_flag(self, capsys):
        for flag, value in (
            ("--jobs", "2"), ("--task-budget", "5"), ("--retries", "0"),
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(["baseline", "c17", flag, value])
            assert exc_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


#: each run command's flag groups: ``(argv, value)`` per flag and the
#: parsed attribute it sets
FLAG_GROUPS = {
    "pool": {
        "--jobs": (["--jobs", "2"], "jobs", 2),
        "--task-budget": (["--task-budget", "9"], "task_timeout", 9.0),
        "--retries": (["--retries", "2"], "max_retries", 2),
    },
    "store": {"--store": (["--store", "s.sqlite"], "store", "s.sqlite")},
    "checkpoint": {
        "--checkpoint": (["--checkpoint", "c.jsonl"], "checkpoint", "c.jsonl"),
        "--resume": (["--resume"], "resume", True),
    },
    "telemetry": {
        "--trace-out": (["--trace-out", "t.jsonl"], "trace_out", "t.jsonl"),
        "-v": (["-v"], "verbose", True),
    },
}

ALL_GROUPS = {"pool", "store", "checkpoint", "telemetry"}

#: every run command, a minimal argv and the flag groups it acts on
RUN_COMMANDS = {
    "classify": (["classify", "c17"], {"pool", "store", "telemetry"}),
    "baseline": (["baseline", "c17"], {"telemetry"}),
    "compare-sorts": (["compare-sorts", "c17"], {"pool", "telemetry"}),
    "sweep": (
        ["sweep", "parity_tree", "--params", "2"],
        {"pool", "checkpoint", "telemetry"},
    ),
    "table1": (["table1"], ALL_GROUPS),
    "table2": (["table2"], ALL_GROUPS),
    "table3": (["table3"], ALL_GROUPS),
    "reanalyze": (["reanalyze", "c17", "c17"], {"pool", "store", "telemetry"}),
    "tightness": (["tightness"], {"pool", "store", "telemetry"}),
    "signoff": (["signoff", "c17"], {"pool", "store", "telemetry"}),
}

#: the (command, flag) pairs a command does not act on
REMOVED_PAIRS = [
    (command, flag)
    for command, (_argv, groups) in RUN_COMMANDS.items()
    for group in sorted(ALL_GROUPS - groups)
    for flag in FLAG_GROUPS[group]
]


class TestSharedFlagFamily:
    """Each run command takes exactly the flag groups it acts on, each
    spelled the same everywhere; any other group's flag is an argparse
    error."""

    @pytest.mark.parametrize("command", list(RUN_COMMANDS))
    def test_family_parses_everywhere(self, command):
        base, groups = RUN_COMMANDS[command]
        flags = [
            FLAG_GROUPS[group][flag]
            for group in sorted(groups)
            for flag in FLAG_GROUPS[group]
        ]
        args = build_parser().parse_args(
            base + [token for argv, _, _ in flags for token in argv]
        )
        for _argv, dest, value in flags:
            assert getattr(args, dest) == value

    def test_eighteen_pairs_removed(self):
        assert len(REMOVED_PAIRS) == 18

    @pytest.mark.parametrize(
        "command, flag", REMOVED_PAIRS,
        ids=[f"{command}{flag}" for command, flag in REMOVED_PAIRS],
    )
    def test_removed_pair_exits_2(self, command, flag, capsys):
        base, _groups = RUN_COMMANDS[command]
        argv = next(
            group[flag][0] for group in FLAG_GROUPS.values() if flag in group
        )
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(base + argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


#: NaN and infinities, which no float flag accepts (a negative slack is
#: a query, a NaN slack is not)
NON_FINITE = [
    ["signoff", "c17", "--slack", "nan"],
    ["signoff", "c17", "--slack", "inf"],
    ["signoff", "c17", "--slack=-inf"],
    ["select", "c17", "--fraction", "nan"],
    ["select", "c17", "--fraction", "inf"],
]

#: numeric flags out of range: each must exit non-zero with a one-line
#: error, never a traceback
BAD_NUMBERS = [
    ["sweep", "parity_tree", "--params", "2", "--retries", "-1"],
    ["classify", "c17", "--retries", "x"],
    ["classify", "c17", "--task-budget", "-5"],
    ["classify", "c17", "--task-budget", "0"],
    ["classify", "c17", "--task-budget", "nan"],
    ["classify", "c17", "--max-accepted", "-1"],
    ["testgen", "c17", "--max-accepted", "-1"],
    ["testgen", "c17", "--limit", "-1"],
    ["select", "c17", "--max-accepted", "-1"],
    ["reanalyze", "c17", "c17", "--max-accepted", "-1"],
    ["tightness", "c17", "--max-accepted", "-1"],
    ["sweep", "parity_tree", "--params", "2", "--budget", "-1"],
    ["compare-sorts", "c17", "--sample-size", "-3"],
    ["compare-sorts", "c17", "--sample-size", "0"],
    ["sta", "c17", "-k", "-2"],
    ["dot", "c17", "--stabilize", "00000", "--po", "9"],
    ["dot", "c17", "--po", "-1"],
    ["serve", "--port", "0", "--deadline", "0"],
    ["serve", "--port", "0", "--max-accepted", "-1"],
    ["serve", "--port", "-1"],
    ["serve", "--port", "70000"],
    ["atpg", "c17", "--random-burst", "-1"],
    ["cache", "gc", "x.sqlite", "--max-age-days", "-1"],
    *NON_FINITE,
]


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids=" ".join)
def test_bad_number_exits_without_traceback(argv, capsys):
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status not in (0, None)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse's usage error, or the one line a SystemExit message prints
    assert "error: argument" in err or (
        isinstance(status, str) and "\n" not in status
    )


@pytest.mark.parametrize("argv", NON_FINITE, ids=" ".join)
def test_non_finite_number_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_negative_slack_is_still_a_query(capsys):
    assert main(["signoff", "c17", "--slack", "-1"]) == 0
    assert "slack >= -1" in capsys.readouterr().out


class TestJsonOutputs:
    def test_info_json(self, capsys):
        assert main(["info", "c17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "c17"
        assert payload["logical_paths"] == 22
        assert payload["physical_paths"] == 11

    def test_classify_json_stable_keys(self, capsys):
        assert main(["classify", "c17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "accepted", "criterion", "edges_visited", "elapsed",
            "fingerprint", "name", "rd_count", "rd_percent", "session",
            "sort", "total_logical",
        ]
        assert payload["criterion"] == "SIGMA_PI"
        assert payload["session"]["classify_passes"] >= 1

    def test_metrics_local_json(self, capsys):
        assert main(["metrics", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}

    def test_metrics_local_human(self, capsys):
        main(["classify", "c17"])
        capsys.readouterr()
        assert main(["metrics"]) == 0
        assert "classify" in capsys.readouterr().out


class TestNewSubcommands:
    def test_trace_out_writes_spans_and_metrics(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["classify", "c17", "--trace-out", str(path)]) == 0
        assert "trace:" in capsys.readouterr().err
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[-1]["type"] == "metrics"
        assert any(l.get("name") == "classify.pass" for l in lines)

    def test_classify_jobs_cone_fanout_fs(self, capsys):
        assert main(["classify", "c17", "--criterion", "fs", "--jobs", "2"]) == 0
        serial_like = capsys.readouterr().out
        assert main(["classify", "c17", "--criterion", "fs"]) == 0
        serial = capsys.readouterr().out
        # cone decomposition preserves the counts
        assert serial_like.split("accepted")[0] == serial.split("accepted")[0]

    def test_classify_jobs_counts_one_pass_per_cone(self, capsys):
        argv = ["classify", "c17", "--criterion", "fs", "--jobs", "2", "-v"]
        assert main(argv) == 0
        summary = capsys.readouterr().out.splitlines()[1]
        assert summary.startswith("passes=2 ")

    def test_classify_jobs_registry_counts_each_cone_once(self, capsys):
        """The cone workers' own sessions feed the registry; the
        caller's session counts the same passes, not a second time."""
        get_registry().reset()
        argv = ["classify", "c17", "--criterion", "fs", "--jobs", "2", "-v"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("passes=2 ")
        assert re.search(r"^\s*session\.classify_passes\s+2$", out, re.M)

    def test_classify_jobs_store_warm_run_reads_every_cone(
        self, capsys, tmp_path
    ):
        store = str(tmp_path / "s.sqlite")
        argv = ["classify", "c17", "--criterion", "fs", "--jobs", "2",
                "--store", store, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        cones = len(load_circuit("c17").outputs)
        assert cold["session"]["cone_misses"] == cones
        assert warm["session"]["cone_hits"] == cones
        assert warm["fingerprint"] == cold["fingerprint"] is not None
        assert warm["accepted"] == cold["accepted"] == 22
        assert main(argv[:-1] + ["-v"]) == 0
        summary = capsys.readouterr().out.splitlines()[1]
        assert f"cones={cones}/{cones} hit" in summary
        assert "store=off" not in summary

    def test_classify_jobs_max_accepted_is_a_per_cone_budget(self, capsys):
        argv = ["classify", "c17", "--criterion", "fs", "--jobs", "2"]
        assert main(argv + ["--max-accepted", "1"]) == 1
        assert "classify failed" in capsys.readouterr().err
        # c17's cones accept 10 and 12 paths: a budget of 12 admits
        # every cone although the circuit accepts 22
        assert main(argv + ["--max-accepted", "12"]) == 0
        assert "22/22 accepted" in capsys.readouterr().out

    def test_classify_budget_abort_is_one_stderr_line(self, capsys):
        argv = ["classify", "c17", "--criterion", "fs", "--max-accepted", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("classify failed: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_classify_jobs_sigma_warns_and_runs(self, capsys):
        assert main(["classify", "c17", "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        assert "SIGMA_PI" in captured.out
        assert "no effect" in captured.err

    def test_compare_sorts(self, capsys):
        code = main(
            ["compare-sorts", "c17", "--sorts", "pin,heu2", "--sample-size", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "c17[pin]" in out and "c17[heu2]" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "parity_tree", "--params", "2,3"]) == 0
        out = capsys.readouterr().out
        assert "Sweep: parity_tree" in out
        assert "logical paths" in out

    def test_sweep_bad_params(self):
        with pytest.raises(SystemExit):
            main(["sweep", "parity_tree", "--params", "two"])

    def test_sweep_checkpoint_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "sweep.jsonl")
        assert main(
            ["sweep", "parity_tree", "--params", "2,3", "--checkpoint", ckpt]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["sweep", "parity_tree", "--params", "2,3",
             "--checkpoint", ckpt, "--resume"]
        ) == 0
        assert capsys.readouterr().out == first

    def test_tightness_table(self, capsys):
        assert main(["tightness", "c17", "apex-a"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out and "apex-a" in out
        assert "exact" in out

    def test_tightness_json_invariants(self, capsys):
        assert main(["tightness", "c17", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["criterion"] == "SIGMA_PI"
        (row,) = payload["rows"]
        assert row["exact_rd_percent"] >= row["approx_rd_percent"]
        assert row["witness_replays"] == row["exact_accepted"]

    def test_tightness_jobs_byte_identical(self, capsys):
        assert main(["tightness", "c17", "apex-a", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["tightness", "c17", "apex-a", "--json", "--jobs", "2"]
        ) == 0
        fanned = json.loads(capsys.readouterr().out)
        # rows are deterministic modulo solver diagnostics and timing
        volatile = ("conflicts", "decisions", "learned_reuse", "elapsed")
        for got, want in zip(fanned["rows"], serial["rows"]):
            for key in volatile:
                got.pop(key), want.pop(key)
            assert got == want

    def test_tightness_store_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "verdicts.sqlite")
        argv = ["tightness", "c17", "apex-a", "--store", store, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [r["circuit"] for r in cold["rows"]] == ["c17", "apex-a"]
        for cold_row, warm_row in zip(cold["rows"], warm["rows"]):
            assert not cold_row["skipped"], cold_row
            assert cold_row["source"] == "computed"
            assert warm_row["source"] == "store"
            assert cold_row["exact_rd_percent"] >= cold_row["approx_rd_percent"]
            assert cold_row["witness_replays"] == cold_row["exact_accepted"]
            assert cold_row["witness_replays"] >= 1
            for key in ("total_logical", "approx_accepted", "exact_accepted"):
                assert warm_row[key] == cold_row[key], key

    def test_tightness_skip_row_for_wide_circuit(self, capsys):
        assert main(
            ["tightness", "s432-rand", "--max-inputs", "10"]
        ) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_tightness_criterion_nr(self, capsys):
        assert main(["tightness", "c17", "--criterion", "nr", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["criterion"] == "NR"
        assert payload["sort"] == "none"


class TestEcoCommands:
    @pytest.fixture
    def eco_pair(self, tmp_path):
        """s499-ecc and a copy with one local gate flipped: the AND/OR
        gate that reaches the fewest output cones, as .bench files."""
        from repro.circuit.bench import write_bench
        from repro.circuit.gates import GateType
        from repro.gen.suite import get_circuit
        from repro.incremental import cone_index

        flips = {
            GateType.AND: GateType.OR,
            GateType.OR: GateType.AND,
            GateType.NAND: GateType.NOR,
            GateType.NOR: GateType.NAND,
        }
        base = get_circuit("s499-ecc")
        cones = cone_index(base).cones
        gid = min(
            (g for g in range(base.num_gates) if base.gate_type(g) in flips),
            key=lambda g: sum((cone.mask >> g) & 1 for cone in cones),
        )
        edited = base.copy("s499-ecc-eco")
        edited.replace_gate(
            base.gate_name(gid), flips[base.gate_type(gid)],
            list(edited.fanin(gid)),
        )
        paths = []
        for circuit, name in ((base, "base"), (edited, "edited")):
            path = tmp_path / f"{name}.bench"
            path.write_text(write_bench(circuit), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_diff_and_reanalyze_a_local_flip(self, eco_pair, tmp_path, capsys):
        base, edited = eco_pair
        assert main(["diff", base, edited, "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["counts"]["DIRTY"] >= 1, diff["counts"]
        assert diff["counts"]["CLEAN"] >= 1, diff["counts"]
        assert 0.0 < diff["reuse_possible"] < 1.0, diff

        store = str(tmp_path / "eco.sqlite")
        assert main(
            ["reanalyze", base, edited, "--store", store,
             "--criterion", "fs", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reuse_ratio"] > 0.0
        assert report["edited"]["cones_reused"] >= 1

    @pytest.mark.parametrize(
        "flags", [["--criterion", "fs"], ["--sort", "heu2inv"]]
    )
    def test_reanalyze_identical_pair_is_fully_reused(
        self, flags, tmp_path, capsys
    ):
        store = str(tmp_path / "eco.sqlite")
        assert main(
            ["reanalyze", "c17", "c17", "--store", store, "--json", *flags]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diff"]["counts"]["DIRTY"] == 0, report["diff"]
        assert report["reuse_ratio"] == 1.0
        if "heu2inv" in flags:
            assert report["edited"]["sort"] == "heu2inv"


class TestVersion:
    def test_version_subcommand(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-rd ")
        assert out.split()[1][0].isdigit()

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-rd " in capsys.readouterr().out

    def test_flag_and_subcommand_agree(self, capsys):
        main(["version"])
        sub = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == sub


class TestStoreFlags:
    def test_classify_store_cold_then_warm(self, capsys, tmp_path):
        store = str(tmp_path / "s.sqlite")
        assert main(["classify", "c17", "--store", store, "-v"]) == 0
        cold = capsys.readouterr().out
        assert "store=0/" in cold  # all misses
        assert main(["classify", "c17", "--store", store, "-v"]) == 0
        warm = capsys.readouterr().out
        assert "hit (100%)" in warm
        assert cold.splitlines()[0] == warm.splitlines()[0]  # same result

    def test_classify_heu1_sort_read_through_store(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.store.db import ResultStore

        store = str(tmp_path / "s.sqlite")
        argv = ["classify", "c17", "--sort", "heu1", "--store", store, "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        hits = []
        real_get = ResultStore.get

        def get(self, fingerprint, kind, variant=""):
            payload = real_get(self, fingerprint, kind, variant)
            hits.append((kind, variant, payload is not None))
            return payload

        monkeypatch.setattr(ResultStore, "get", get)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert ("sort", "heu1", True) in hits
        assert warm["accepted"] == cold["accepted"]

    def test_cache_stats_gc_clear(self, capsys, tmp_path):
        store = str(tmp_path / "s.sqlite")
        main(["classify", "c17", "--store", store])
        capsys.readouterr()
        assert main(["cache", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "schema:" in out
        assert main(["cache", "gc", store]) == 0
        assert "removed 0 entries" in capsys.readouterr().out
        assert main(["cache", "clear", store]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", store]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_stats_counts_a_cone_only_store(self, capsys, tmp_path):
        store = str(tmp_path / "s.sqlite")
        argv = ["reanalyze", "c17", "c17", "--criterion", "fs", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "entries: 2 (cone=2)" in out
        assert "whole:   0 entries" in out
        assert "cone:    2 entries" in out

    def test_cache_stats_breaks_out_tightness_entries(self, capsys, tmp_path):
        store = str(tmp_path / "s.sqlite")
        main(["tightness", "c17", "--store", store])
        capsys.readouterr()
        assert main(["cache", "stats", store]) == 0
        assert "tightness=1" in capsys.readouterr().out

    def test_cache_gc_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "gc", str(tmp_path / "absent.sqlite")])

    def test_table_store_flag_parses(self):
        for table in ("table1", "table2", "table3"):
            args = build_parser().parse_args([table, "--store", "f.sqlite"])
            assert args.store == "f.sqlite"

    def test_serve_needs_exactly_one_endpoint(self):
        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit):
            main(["serve", "--socket", "a.sock", "--port", "1"])

    def test_serve_rejects_nonpositive_workers(self):
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit) as exc_info:
                main(["serve", "--socket", "a.sock", "--workers", bad])
            assert exc_info.value.code == 2  # argparse usage error

    def test_serve_rejects_nonpositive_max_pending(self):
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit) as exc_info:
                main(["serve", "--socket", "a.sock", "--max-pending", bad])
            assert exc_info.value.code == 2

    def test_serve_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "exit status" in out
        assert "130" in out and "SIGINT" in out

    def test_classify_remote_connection_refused(self, tmp_path, capsys):
        missing = str(tmp_path / "nothing.sock")
        assert main(["classify", "c17", "--remote", missing]) == 1
        assert "remote classify failed" in capsys.readouterr().err
