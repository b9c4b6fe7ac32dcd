"""``table1``: the paper's own job, one Table I row per circuit.

Each row runs five classification passes (FS, Heu1, Heu2's NR plus final
pass, inverted Heu2) with no store.  The operation is the whole table,
all seven rows: the rows differ in cost by 10x, so the median row falls
between circuits whose times overlap and jumps from run to run.  The
circuit set is fixed, so the seed does not change this workload.
s499-ecc and s3540-mult are left out only for length: they repeat the
same passes.
"""
from __future__ import annotations

from common import Checks, measure_passes, pass_count, reference

CIRCUITS = (
    "s432-rand", "s880-alu", "s1355-par", "s1908-csel",
    "s2670-rand", "s5315-rca", "s7552-mix",
)
#: the pass length the run-seconds budget is divided by: 30 s gives
#: four passes, each 3.5-5.5 s on the host the benchmark was sized on
NOMINAL_PASS_S = 7.5


def setup():
    """Imports and circuit load: what a user of Table I waits for first."""
    from repro.experiments.harness import run_table1_row  # noqa: F401
    from repro.gen.suite import get_circuit

    return [get_circuit(name) for name in CIRCUITS]


def _check_row(checks: Checks, row, want: dict) -> None:
    got = {
        "fus": round(row.fus_percent, 2),
        "heu1": round(row.heu1_percent, 2),
        "heu2": round(row.heu2_percent, 2),
        "inv": round(row.heu2_inverse_percent, 2),
    }
    expected = {key: want[key] for key in got}
    if want["total"] is not None:
        total = row.total_logical
        got["total"] = total
        got["fs_accepted"] = round(total * (100 - row.fus_percent) / 100)
        got["heu1_accepted"] = round(total * (100 - row.heu1_percent) / 100)
        for key in ("total", "fs_accepted", "heu1_accepted"):
            expected[key] = want[key]
    checks.expect(got, expected, f"table1 row {row.name}")


def _parts(circuits) -> list:
    from repro.experiments.harness import run_table1_row

    return [("rows", lambda c=c: run_table1_row(c)) for c in circuits]


def run(seed: int, seconds: float, trace: bool) -> dict:
    del seed  # fixed circuit set
    want = reference()["table1"]
    checks = Checks()

    def check(_circuits, outputs):
        for row in outputs["rows"]:
            _check_row(checks, row, want[row.name])

    passes = pass_count(seconds, NOMINAL_PASS_S)
    metrics, _ = measure_passes("table1", setup, _parts, check, passes, trace)
    return {"metrics": metrics, "checks": checks}
