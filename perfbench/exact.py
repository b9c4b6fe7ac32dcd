"""``exact``: the verdict side of the system, all storeless.

Three parts run in turn:

* tightness — ``verdict.run_tightness`` (SIGMA_PI, heu2 sort,
  ``max_accepted=50000``) over the <=20-PI suite minus smid-mult.
  s3540-mult ends in the expected budget SKIP after its unbudgeted Heu2
  analysis; smid-mult shows the same defect but takes minutes;
* signoff — ``signoff.signoff(k=100)`` on the BENCH_timing circuits, with
  the delay seed set to the workload seed;
* testgen — ``repro-rd testgen``'s flow: heu2 classify, then
  ``delaytest.tpg.generate_test_set`` on the non-RD paths.
"""
from __future__ import annotations

import hashlib
import json
import math

from common import Checks, measure_passes, pass_count, ratio, reference

TIGHTNESS = (
    "apex-a", "apex-c", "apex-e", "bw-d", "c17", "misex-f", "misex-h",
    "s3540-mult", "s432-rand", "s880-alu", "seq-g", "xprienc16", "z5xp-b",
)
MAX_ACCEPTED = 50_000
SIGNOFF = ("c17", "apex-a", "misex-f", "bw-d", "xcmp16", "seq-g")
K = 100
TESTGEN = ("s432-rand", "apex-c", "bw-d")
#: the seed whose signoff tables are pinned in reference.json
DEFAULT_SEED = 0
PARTS = ("tightness", "signoff", "testgen")
#: the pass length the run-seconds budget is divided by: 30 s gives
#: two passes, each 13-21 s on the host the benchmark was sized on
NOMINAL_PASS_S = 15.0


def setup():
    """Imports and circuit load for all three parts."""
    from repro.classify.session import CircuitSession  # noqa: F401
    from repro.delaytest.tpg import generate_test_set  # noqa: F401
    from repro.gen.suite import get_circuit
    from repro.signoff import signoff  # noqa: F401
    from repro.verdict.tightness import run_tightness  # noqa: F401

    return {
        "tightness": [get_circuit(name) for name in TIGHTNESS],
        "signoff": [get_circuit(name) for name in SIGNOFF],
        "testgen": [get_circuit(name) for name in TESTGEN],
    }


# -- the three parts --------------------------------------------------------
def _tightness(circuit):
    from repro.verdict.tightness import run_tightness

    return run_tightness([circuit], max_accepted=MAX_ACCEPTED).rows[0]


def _signoff(circuit, seed):
    from repro.signoff import signoff

    return signoff(circuit, k=K, seed=seed)


def _testgen(circuit):
    from repro.classify.conditions import Criterion
    from repro.classify.session import CircuitSession
    from repro.delaytest.tpg import generate_test_set

    session = CircuitSession(circuit)
    targets: list = []
    session.classify(
        Criterion.SIGMA_PI, sort=session.heuristic2_sort(),
        on_path=targets.append,
    )
    return targets, generate_test_set(circuit, targets)


def _parts(circuits, seed) -> list:
    """The pass as three parts, one step per circuit in each.

    The operation is the whole pass: its ~22 per-circuit calls differ in
    cost by three orders of magnitude, so their median and tail fall
    between clusters of calls and jump from run to run."""
    runners = {
        "tightness": _tightness,
        "signoff": lambda circuit: _signoff(circuit, seed),
        "testgen": _testgen,
    }
    return [
        (part, lambda run=runners[part], c=c: run(c))
        for part in PARTS for c in circuits[part]
    ]


# -- output checks ------------------------------------------------------
def _check_tightness(checks: Checks, rows, want: dict) -> None:
    for row in rows:
        expected = want[row.circuit]
        if expected.get("skip"):
            checks.op(row.skipped.startswith("classifier accepted >"),
                      f"tightness {row.circuit}: expected a budget SKIP, got "
                      f"{row.skipped or 'a decided row'}")
            continue
        got = {"total": row.total_logical, "approx": row.approx_accepted,
               "exact": row.exact_accepted}
        checks.expect(got, expected, f"tightness {row.circuit}")


def _signoff_problems(circuit, report, seed) -> "list[str]":
    """Independent checks of one report: row delays recomputed from the
    path with ``logical_path_delay``, rows in ``sort_key`` order, at most
    ``K`` rows."""
    from repro.paths.path import LogicalPath, PhysicalPath, RISING, FALLING
    from repro.timing.annotate import materialize_delays
    from repro.timing.pathdelay import logical_path_delay

    problems = []
    delays = materialize_delays(circuit, {}, seed=seed)
    keys = [row.sort_key() for row in report.rows]
    if keys != sorted(keys):
        problems.append("rows out of sort_key order")
    if not 0 < len(report.rows) <= K:
        problems.append(f"{len(report.rows)} rows for k={K}")
    for row in report.rows:
        leads = tuple(
            circuit.lead_index(circuit.gate_by_name(gate), pin)
            for gate, pin in row.pins
        )
        value = RISING if row.transition == "0->1" else FALLING
        lp = LogicalPath(PhysicalPath(leads), value)
        recomputed = logical_path_delay(circuit, lp, delays)
        if not math.isclose(recomputed, row.delay, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{row.describe()}: delay {row.delay} != {recomputed}")
    return problems


def _check_signoff(checks: Checks, circuits, reports, seed, want) -> None:
    for circuit, report in zip(circuits, reports):
        problems = _signoff_problems(circuit, report, seed)
        if seed == DEFAULT_SEED:
            critical = want["signoff_critical_delay"][circuit.name]
            if round(report.rows[0].delay, 4) != critical:
                problems.append(f"critical delay {report.rows[0].delay} != {critical}")
            digest = hashlib.sha256(report.table_bytes()).hexdigest()
            if digest != want["signoff_table_sha256"][circuit.name]:
                problems.append(f"table digest {digest} differs from the pinned one")
        checks.op(not problems, f"signoff {circuit.name}: {'; '.join(problems)}")


def testgen_digest(test_set) -> str:
    """A digest of the pairs and which pair covers which target."""
    def key(lp):
        return [list(lp.path.leads), lp.final_value]

    payload = {
        "pairs": [[list(v1), list(v2)] for v1, v2 in test_set.pairs],
        "covered": sorted([key(lp), index] for lp, index in test_set.covered.items()),
        "untestable": sorted(key(lp) for lp in test_set.untestable),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _testgen_problems(circuit, targets, test_set) -> "list[str]":
    """covered ∪ untestable = targets, and each pair, simulated again,
    robustly sensitizes every target credited to it."""
    from repro.delaytest.simulator import sensitized_paths

    problems = []
    covered = set(test_set.covered)
    untestable = set(test_set.untestable)
    if covered | untestable != set(targets) or covered & untestable:
        problems.append("covered and untestable do not partition the targets")
    credited: dict = {}
    for lp, index in test_set.covered.items():
        credited.setdefault(index, set()).add(lp)
    for index, paths in credited.items():
        robust = sensitized_paths(circuit, *test_set.pairs[index]).robust
        if not paths <= robust:
            problems.append(f"pair {index} does not cover {len(paths - robust)} "
                            "credited targets")
    return problems


def _check_testgen(checks: Checks, circuits, outputs, want) -> None:
    for circuit, (targets, test_set) in zip(circuits, outputs):
        problems = _testgen_problems(circuit, targets, test_set)
        expected_targets = want["tightness"][circuit.name]["approx"]
        if len(targets) != expected_targets:
            problems.append(f"{len(targets)} targets, want {expected_targets}")
        digest = testgen_digest(test_set)
        if digest != want["testgen_sha256"][circuit.name]:
            problems.append(f"test-set digest {digest} differs from the pinned one")
        checks.op(not problems, f"testgen {circuit.name}: {'; '.join(problems)}")


def _check(checks, circuits, outputs, seed, want) -> None:
    _check_tightness(checks, outputs["tightness"], want["tightness"])
    _check_signoff(checks, circuits["signoff"], outputs["signoff"], seed, want)
    _check_testgen(checks, circuits["testgen"], outputs["testgen"], want)


# -- counts the traced run takes from the outputs -------------------------
def _output_counts(outputs) -> dict:
    decided = [row for row in outputs["tightness"] if not row.skipped]
    signoff_counts = {"candidates": 0, "prefilter_rejects": 0, "robust_confirmed": 0}
    for report in outputs["signoff"]:
        for key in signoff_counts:
            signoff_counts[key] += report.counters[key]
    test_sets = [test_set for _targets, test_set in outputs["testgen"]]
    pairs = sum(len(ts.pairs) for ts in test_sets)
    return {
        "verdict.queries": sum(row.approx_accepted for row in decided),
        "verdict.conflicts": sum(row.conflicts for row in decided),
        "verdict.decisions": sum(row.decisions for row in decided),
        "verdict.refuted": sum(row.refuted for row in decided),
        "signoff.candidates": signoff_counts["candidates"],
        "signoff.prefilter_rejects": signoff_counts["prefilter_rejects"],
        "signoff.confirmed_ratio": ratio(
            signoff_counts["robust_confirmed"], signoff_counts["candidates"]
        ),
        "testgen.pairs": pairs,
        "testgen.compaction": ratio(
            sum(len(ts.covered) for ts in test_sets), pairs
        ),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    want = reference()["exact"]
    checks = Checks()

    def parts_of(circuits):
        return _parts(circuits, seed)

    def check(circuits, outputs):
        _check(checks, circuits, outputs, seed, want)

    metrics, traced_outputs = measure_passes(
        "exact", setup, parts_of, check, pass_count(seconds, NOMINAL_PASS_S),
        trace,
    )
    if trace:
        metrics["per_layer"].update(_output_counts(traced_outputs))
    return {"metrics": metrics, "checks": checks}
