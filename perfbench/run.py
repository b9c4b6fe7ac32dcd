"""The benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Workloads: ``table1``, ``exact``
and ``service`` (see BENCHMARK.json and perfbench/README.md).  With
``--trace 0`` the run measures the end-to-end metrics with the program
unmodified; with ``--trace 1`` it also wraps each layer boundary and
reports the per-layer metrics.  The report goes to standard output, one
metric per line, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full report is also written to ``.perfbench_out/``.  The exit code
is non-zero when any output is wrong or the program is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)

WORKLOADS = ("table1", "exact", "service")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(src), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    workload = __import__(args.workload)
    if args.setup_probe:
        workload.setup()
        return 0

    result = workload.run(args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    checks = result["checks"]
    from common import PER_LAYER, unit_of

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures[:20],
        "metrics": {k: v for k, v in metrics.items() if k != "per_layer"},
        "per_layer": metrics.get("per_layer"),
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  host "
          f"{report['host']['cpus']} cpus, Python {report['host']['python']}")
    for failure in report["failures"]:
        print(f"MISMATCH {failure}")
    print(f"{'failed_ratio':<28} {report['failed_ratio']:.6g} ratio "
          f"({checks.failed}/{checks.attempted})")
    for key, value in report["metrics"].items():
        print(f"{key:<28} {value:.6g} {unit_of(key)}")
    if args.trace:
        for key in PER_LAYER:
            print(f"{key:<28} {metrics['per_layer'][key]:.6g} {unit_of(key)}")
        selected = {
            key: {"value": metrics["per_layer"][key], "unit": unit_of(key)}
            for key in PER_LAYER
        }
    else:
        selected = {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in END_TO_END
        }
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": selected,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
