"""Shared pieces of the workloads: output checks, latency summaries,
set-up probes and the per-layer table of the in-process workloads."""
from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh-process set-up probes per run of an in-process workload; their
#: median is reported (process start-up spreads more than the passes)
SETUP_SAMPLES = 5


def reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Counts operations attempted and those whose output was wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: "list[str]" = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def expect(self, actual, expected, what: str) -> bool:
        return self.op(actual == expected, f"{what}: got {actual!r}, want {expected!r}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: "list[float]") -> "tuple[float, int, int]":
    """``(value, percentile, samples beyond it)`` for the highest of
    p99/p90/p75/p50 that still has at least ten samples beyond it (p50
    when there are fewer than twenty samples)."""
    for q in (99, 90, 75, 50):
        beyond = int(len(values) * (100 - q) / 100)
        if beyond >= 10 or q == 50:
            return percentile(values, q), q, beyond
    raise AssertionError("unreachable")


def latency_summary(prefix: str, seconds: "list[float]") -> dict:
    """Median and tail of one latency population, in ms."""
    value, q, beyond = tail(seconds)
    return {
        f"{prefix}_p50_ms": 1000 * statistics.median(seconds),
        f"{prefix}_tail_ms": 1000 * value,
        f"{prefix}_tail_percentile": q,
        f"{prefix}_tail_beyond": beyond,
        f"{prefix}_samples": len(seconds),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """How many whole passes fill ``seconds`` on the host the benchmark
    was sized on, at least one.  The count depends on nothing measured,
    so every run of one ``--seconds`` does the same work and reports the
    same tail percentile however fast the host runs that day."""
    return max(1, math.floor(seconds / nominal_pass_s + 0.25))


def probe_setup(workload: str) -> "tuple[list[float], list[float]]":
    """Set-up time of ``workload`` in fresh processes: interpreter start,
    imports and circuit load, measured from spawn to exit.  Returns the
    measured and the host-speed-scaled samples."""
    from speed import factor, timed_parts

    def probe():
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--setup-probe"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )

    _, measured, samples = timed_parts(
        (f"probe{i}", probe) for i in range(SETUP_SAMPLES)
    )
    scale = factor(samples)
    return list(measured.values()), [s * scale for s in measured.values()]


# -- per-layer metrics of the in-process workloads ------------------------
#: span name -> per-layer self-time metric
LAYER_TIMES = {
    "circuit.ir_build": "circuit.ir_build_s",
    "paths.count": "paths.count_s",
    "classify.tables": "classify.tables_s",
    "classify.pass": "classify.pass_s",
    "sorting.heu1": "sorting.heu1_s",
    "sorting.heu2": "sorting.heu2_s",
    "verdict.oracle_build": "verdict.oracle_build_s",
    "verdict.decide": "verdict.decide_s",
    "delaytest.robust_test": "delaytest.robust_test_s",
    "delaytest.faultsim": "delaytest.faultsim_s",
    "timing.enumerate": "timing.enumerate_s",
}

#: every per-layer metric, in BENCHMARK.json order; a layer a workload
#: never reaches reads 0
PER_LAYER = (
    "circuit.load_s", "circuit.ir_build_s",
    "paths.count_s", "paths.count_calls",
    "classify.tables_s", "classify.tables_built",
    "classify.pass_s", "classify.passes", "classify.edges",
    "classify.edges_per_s", "classify.aborted_s", "classify.useful_ratio",
    "sorting.heu1_s", "sorting.heu2_s",
    "verdict.oracle_build_s", "verdict.decide_s", "verdict.queries",
    "verdict.conflicts", "verdict.decisions", "verdict.refuted",
    "delaytest.robust_test_s", "delaytest.robust_tests",
    "delaytest.robust_found_ratio",
    "delaytest.faultsim_s", "testgen.pairs", "testgen.compaction",
    "timing.enumerate_s", "signoff.candidates", "signoff.prefilter_rejects",
    "signoff.confirmed_ratio",
    "store.get_s", "store.put_s", "store.gets", "store.hit_ratio",
    "store.cone_hit_ratio",
    "incremental.conefp_s", "incremental.cones_dirty",
    "incremental.cones_clean", "incremental.reuse_ratio",
    "service.client_s", "service.fleet_s", "service.worker_s",
    "service.wire_s", "service.forward_s",
    "fleet.coalesce_hits", "fleet.retries", "fleet.shed", "fleet.errors",
    "service.errors",
    "trace.wall_s", "unattributed_s", "trace.overhead_s",
)

#: metric-name suffix -> unit, first match wins
UNITS = (("_per_s", "1/s"), ("_ratio", "ratio"), ("_ms", "ms"),
         ("_mb", "MB"), ("_s", "s"))


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS:
        if metric.endswith(suffix):
            return unit
    return "count"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def install_layer_wrappers(tracer) -> None:
    """Wrap every in-process layer boundary the per-layer table names."""
    from repro.circuit.flat import FlatCircuit, LiteralClosures
    from repro.classify.session import CircuitSession
    from repro import loading
    from repro.delaytest import simulator, testability
    from repro.gen import suite
    from repro.paths import count
    from repro.sorting import heuristics
    from repro.timing import kpaths
    from repro.verdict import tightness
    from repro.verdict.oracle import VerdictOracle

    def tables_built(args):
        return args[0].stats.tables_built

    tracer.wrap_function(suite, "get_circuit", "circuit.load")
    tracer.wrap_function(loading, "load", "circuit.load")
    tracer.wrap_method(FlatCircuit, "__init__", "circuit.ir_build")
    tracer.wrap_method(LiteralClosures, "__init__", "circuit.ir_build")
    tracer.wrap_function(count, "count_paths", "paths.count")
    tracer.wrap_method(
        CircuitSession, "tables", "classify.tables",
        lambda args, _result, built: tables_built(args) > built, tables_built,
    )
    tracer.wrap_method(
        CircuitSession, "classify", "classify.pass",
        lambda _args, result, _before: result.edges_visited,
    )
    tracer.wrap_function(heuristics, "heuristic1_sort", "sorting.heu1")
    tracer.wrap_function(heuristics, "heuristic2_analysis", "sorting.heu2")
    tracer.wrap_method(VerdictOracle, "__init__", "verdict.oracle_build")
    tracer.wrap_method(VerdictOracle, "decide", "verdict.decide")
    tracer.wrap_function(
        testability, "robust_test", "delaytest.robust_test",
        lambda _args, pair, _before: pair is not None,
    )
    tracer.wrap_function(simulator, "sensitized_paths", "delaytest.faultsim")
    tracer.wrap_function(kpaths, "iter_paths_by_delay", "timing.enumerate",
                         generator=True)
    tracer.wrap_function(tightness, "tightness_row", "verdict.row")


def in_process_layers(tracer, passes: int, traced_wall: float,
                      overhead: float) -> dict:
    """Per-layer metrics (per pass) from the spans of ``passes`` traced
    passes whose summed wall time is ``traced_wall``; ``overhead`` is
    their summed scaled wall minus that of as many untraced passes."""
    spans = [s for s in tracer.spans if s.within("pass") is not None]
    out = {name: 0.0 for name in PER_LAYER}
    attributed = 0.0
    for span in spans:
        metric = LAYER_TIMES.get(span.name)
        if metric is not None:
            out[metric] += span.self_s
            attributed += span.self_s
    passes_spans = [s for s in spans if s.name == "classify.pass"]
    done = [s for s in passes_spans if s.error is None]
    aborted = [
        s for s in passes_spans
        if s.error is not None
        or ((row := s.within("verdict.row")) is not None and row.error is not None)
    ]
    out["classify.passes"] = len(passes_spans)
    out["classify.edges"] = sum(s.info for s in done)
    out["classify.edges_per_s"] = ratio(
        out["classify.edges"], sum(s.self_s for s in done)
    )
    out["classify.aborted_s"] = sum(s.self_s for s in aborted)
    out["classify.useful_ratio"] = 1.0 - ratio(
        out["classify.aborted_s"], out["classify.pass_s"]
    )
    out["paths.count_calls"] = sum(1 for s in spans if s.name == "paths.count")
    tables = [s for s in spans if s.name == "classify.tables"]
    out["classify.tables_built"] = sum(1 for s in tables if s.info)
    robust = [s for s in spans if s.name == "delaytest.robust_test"]
    out["delaytest.robust_tests"] = len(robust)
    out["delaytest.robust_found_ratio"] = ratio(
        sum(1 for s in robust if s.info), len(robust)
    )
    out["trace.wall_s"] = traced_wall
    out["unattributed_s"] = traced_wall - attributed
    out["trace.overhead_s"] = overhead
    for name in PER_LAYER:
        if not name.endswith(("_ratio", "_per_s")):
            out[name] /= passes
    return out


def measure_passes(workload: str, setup, parts_of, check, passes: int,
                   trace: bool) -> "tuple[dict, dict | None]":
    """Run ``passes`` passes of an in-process workload and summarize them.

    ``setup()`` imports and loads the circuits; it runs before every pass
    too, so each pass builds its own IR.  ``parts_of(circuits)`` gives the
    pass as ``(part, fn)`` steps, one per circuit call, run back to back
    by ``speed.timed_parts``; the operation is the whole pass.
    ``check(circuits, outputs)`` checks every pass's outputs, a dict of
    each part's list of step results.  With ``trace`` each untraced pass
    is followed by a traced one; the metrics come from the untraced
    passes, the per-layer numbers (and the outputs returned) from the
    traced ones.
    Time metrics are scaled to the reference host speed (see speed.py);
    the measured ones are reported beside them as ``measured_*``.
    """
    from speed import factor, timed_parts
    from tracer import Tracer

    setup_measured, setup_scaled = probe_setup(workload)
    tracer = Tracer() if trace else None
    setup()
    if tracer is not None:
        # wrap after the first setup imported every module that binds a
        # wrapped function by name
        install_layer_wrappers(tracer)
        tracer.install()
        with tracer.region("setup"):
            setup()
        tracer.uninstall()
        # each untraced pass is paired with a traced one: half as many
        # pairs keep a traced run about as long as an untraced one
        passes = (passes + 1) // 2

    part_walls: "dict[str, list]" = {}
    walls: "list[float]" = []
    measured_walls: "list[float]" = []
    traced_walls: "list[float]" = []
    traced_scaled: "list[float]" = []
    traced_outputs = None
    while len(walls) < passes:
        circuits = setup()
        outputs, measured, samples = timed_parts(parts_of(circuits))
        scale = factor(samples)
        walls.append(sum(measured.values()) * scale)
        measured_walls.append(sum(measured.values()))
        for part, wall in measured.items():
            part_walls.setdefault(part, []).append(wall * scale)
        check(circuits, outputs)
        if tracer is not None:
            circuits = setup()
            tracer.install()
            with tracer.region("pass"):
                traced_outputs, measured, samples = timed_parts(parts_of(circuits))
            tracer.uninstall()
            traced_walls.append(sum(measured.values()))
            traced_scaled.append(sum(measured.values()) * factor(samples))
            check(circuits, traced_outputs)

    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": len(walls) / sum(walls),
        "passes": len(walls),
        **latency_summary("op", walls),
        "measured_setup_s": statistics.median(setup_measured),
        "measured_wall_s": statistics.median(measured_walls),
    }
    if len(part_walls) > 1:
        for part, values in part_walls.items():
            metrics[f"{part}_s"] = statistics.median(values)
    if tracer is not None:
        layers = in_process_layers(
            tracer, len(traced_walls), sum(traced_walls),
            sum(traced_scaled) - sum(walls),
        )
        layers["circuit.load_s"] = sum(
            s.self_s for s in tracer.spans
            if s.name == "circuit.load" and s.within("setup") is not None
        )
        metrics["per_layer"] = layers
    return metrics, traced_outputs
