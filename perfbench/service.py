"""``service``: a closed loop against ``repro-rd serve --workers 1 --store``.

Two client connections each send their next request only after the last
reply, because callers of the service wait for each answer.  One worker,
because on a 2-CPU host a second worker would compete with the client
and the front end.  The only workload that reaches the wire, the fleet
front end and its forwarding, the store and incremental re-analysis.

Each repetition starts a fleet on a fresh store, warms it (set-up), runs
the same seeded plan of requests (the timed loop) and stops the fleet:

* warm queries, ~97%: classify (c17 fs, misex-f fs, bw-d sigma, xcmp16
  fs, s432-rand sigma), tightness apex-a and signoff bw-d k=10, which
  set-up has already answered, so the worker reads them from the store;
* ECO requests, ~3%: FS ``cones=True`` classifies of one-gate flips
  shipped as ``.bench`` text, which reuse the base design's stored cones
  and write rows for the dirty cone.  Each flip is drawn from the 10 most
  local sites of a Table I base design, ranked as
  ``benchmarks/record_eco_bench.py`` ranks them; the plan holds the same
  number of flips of every base design.

Layer times come from the fleet's ``metrics`` op, read before and after
the timed loop.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from common import (
    PER_LAYER, ROOT, Checks, latency_summary, pass_count,
    ratio, reference,
)
from speed import factor, sample, timed_parts
from table1 import CIRCUITS as BASES

WARM = (
    ("classify", {"circuit": "c17", "criterion": "fs"}),
    ("classify", {"circuit": "misex-f", "criterion": "fs"}),
    ("classify", {"circuit": "bw-d", "criterion": "sigma"}),
    ("classify", {"circuit": "xcmp16", "criterion": "fs"}),
    ("classify", {"circuit": "s432-rand", "criterion": "sigma"}),
    ("tightness", {"circuit": "apex-a"}),
    ("signoff", {"circuit": "bw-d", "k": 10}),
)
#: requests of each warm query and flips of each base design per loop:
#: three loops of 1,008 warm requests put 30 samples beyond their p99,
#: and each distinct flip costs a ~0.5 s reference check, so flips stay few
WARM_EACH = 144
FLIPS_EACH = 5
SITES = 10
CLIENTS = 2
#: the timed loop runs as this many back-to-back segments of the plan;
#: between two, no request is in flight and the host-speed kernel runs
SEGMENTS = 8
#: processes that compute the ECO references after the timed loops
CHECK_PROCESSES = 2
#: the repetition length the run-seconds budget is divided by: 30 s
#: gives the minimum number of repetitions, each ~10 s on the host the
#: benchmark was sized on
NOMINAL_REP_S = 12.0
#: each repetition sets up once, and set-up time is a median over them
MIN_REPETITIONS = 3
#: response fields that must not change between answers to one query
STABLE = {
    "classify": ("name", "fingerprint", "criterion", "sort", "total_logical",
                 "accepted", "rd_count", "edges_visited"),
    "tightness": ("circuit", "criterion", "sort", "total_logical",
                  "approx_accepted", "exact_accepted", "refuted",
                  "witness_replays", "skipped", "fingerprint"),
    "signoff": ("circuit", "mode", "k", "slack", "delays_digest", "rows",
                "fingerprint"),
}
TMP = ROOT / ".perfbench_tmp"


def warm_label(op: str, fields: dict) -> str:
    return " ".join([op] + [f"{k}={v}" for k, v in sorted(fields.items())])


def stable_digest(op: str, response: dict) -> str:
    stable = {key: response.get(key) for key in STABLE[op]}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


# -- ECO edits --------------------------------------------------------------
def _flips():
    from repro.circuit.gates import GateType

    return {
        GateType.AND: GateType.OR, GateType.OR: GateType.AND,
        GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
    }


def local_edit_sites(circuit, k: int) -> list:
    """The ``k`` most local flippable gates: fewest reachable POs, then
    smallest total dirty-cone gate count, then the latest logic level,
    then name."""
    from repro.incremental import cone_index

    index = cone_index(circuit)
    flips = _flips()
    scored = []
    for gid in range(circuit.num_gates):
        if circuit.gate_type(gid) not in flips:
            continue
        reached = [c for c in index.cones if (c.mask >> gid) & 1]
        scored.append((len(reached), sum(c.num_gates for c in reached),
                       -circuit.level(gid), circuit.gate_name(gid)))
    scored.sort()
    return [name for *_rank, name in scored[:k]]


def flipped_bench(circuit, gate: str) -> str:
    """``.bench`` text of ``circuit`` with one gate's type flipped."""
    from repro.circuit.bench import write_bench

    edited = circuit.copy(f"{circuit.name}-flip-{gate}")
    gid = edited.gate_by_name(gate)
    edited.replace_gate(gate, _flips()[edited.gate_type(gid)],
                        list(edited.fanin(gid)))
    return write_bench(edited)


def make_plan(seed: int) -> list:
    """The seeded request plan: ``(kind, op, fields)`` triples."""
    from repro.gen.suite import get_circuit

    rng = random.Random(seed)
    plan = [("warm", op, fields) for op, fields in WARM for _ in range(WARM_EACH)]
    for name in BASES:
        base = get_circuit(name)
        for gate in rng.sample(local_edit_sites(base, SITES), FLIPS_EACH):
            plan.append(("eco", "classify", {
                "bench": flipped_bench(base, gate), "criterion": "fs",
                "cones": True,
            }))
    rng.shuffle(plan)
    return plan


# -- the fleet ----------------------------------------------------------
class Fleet:
    """One ``repro-rd serve --workers 1 --store`` process tree."""

    def __init__(self, rep: int):
        self.dir = TMP / f"rep{rep}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # relative to the checkout root, which is every process's cwd
        self.socket = os.path.relpath(self.dir / "fleet.sock", ROOT)
        env = dict(os.environ, TMPDIR=str(self.dir))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", "1", "--store", str(self.dir / "store.sqlite")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.children: "list[int]" = []

    def wait_ready(self, timeout: float = 120.0) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready or not self.proc.stdout.readline():
            raise RuntimeError("the fleet did not announce itself")
        self.children = _children(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the front end and its workers."""
        return sum(_vm_hwm_kb(pid) for pid in [self.proc.pid, *self.children]) / 1024

    def stop(self) -> None:
        self.children = self.children or _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for pid in self.children:
            _reap(pid)
        shutil.rmtree(self.dir, ignore_errors=True)


def _children(pid: int) -> "list[int]":
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(tok) for tok in text.split()]


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _running(pid: int) -> bool:
    """True until ``pid`` has exited (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _reap(pid: int, timeout: float = 30.0) -> None:
    """Wait for a worker (a grandchild) to exit; kill it if it lingers."""
    deadline = time.monotonic() + timeout
    while _running(pid):
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


# -- one repetition -----------------------------------------------------
def committed_view(op: str, response: dict) -> dict:
    """The response fields that committed reference numbers pin."""
    if op == "signoff":
        return {"critical_delay": round(response["rows"][0]["delay"], 4)}
    if op == "tightness":
        return {key: response.get(key) for key in
                ("total_logical", "approx_accepted", "exact_accepted")}
    return {key: response.get(key) for key in ("total_logical", "accepted")}


def _warm_up_steps(client):
    """Set-up's requests, as ``speed.timed_parts`` steps."""
    for name in BASES:
        yield "base", lambda name=name: client.request(
            "classify", circuit=name, criterion="fs", cones=True)
    for op, fields in WARM:
        yield "warm", lambda op=op, fields=fields: client.request(op, **fields)


def _check_warm_up(checks: Checks, pinned: dict, responses: list) -> None:
    for (op, fields), response in zip(WARM, responses):
        label = warm_label(op, fields)
        checks.expect(stable_digest(op, response), pinned[label]["sha256"],
                      f"warm {label}")
        committed = pinned[label].get("committed")
        if committed:
            view = committed_view(op, response)
            checks.expect({key: view[key] for key in committed}, committed,
                          f"warm {label} against committed numbers")


def _loop(address: str, plan: list) -> "tuple[float, list, list]":
    """The timed closed loop, run as ``SEGMENTS`` back-to-back segments
    of the plan.  Returns its wall time (the segments' sum), one
    ``(index, seconds, response or exception)`` per request, and the
    kernel samples taken before the first segment and after each."""
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    results: list = []

    def client_thread(client, indices):
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            _kind, op, fields = plan[index]
            started = time.perf_counter()
            try:
                outcome = client.request(op, **fields)
            except Exception as exc:  # counted as a failed request
                outcome = exc
            results.append((index, time.perf_counter() - started, outcome))

    clients = [ServiceClient.connect(address) for _ in range(CLIENTS)]
    wall = 0.0
    samples = [sample()]
    try:
        bounds = [len(plan) * k // SEGMENTS for k in range(SEGMENTS + 1)]
        for low, high in zip(bounds, bounds[1:]):
            indices = iter(range(low, high))
            threads = [threading.Thread(target=client_thread, args=(c, indices))
                       for c in clients]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall += time.perf_counter() - started
            samples.append(sample())
    finally:
        for client in clients:
            client.close()
    return wall, results, samples


def _repetition(rep: int, plan: list, checks: Checks, pinned: dict) -> dict:
    """Set-up and timed loop on a fresh fleet.  The host-speed kernel
    (speed.py) runs before the fleet starts and between every two steps
    of set-up and segments of the loop, while no request is in flight."""
    from repro.service.client import ServiceClient

    before_start = [sample()]
    fleet = Fleet(rep)
    try:
        started = time.perf_counter()
        fleet.wait_ready()
        start_s = time.perf_counter() - started
        with ServiceClient.connect(fleet.socket) as client:
            responses, measured, setup_samples = timed_parts(_warm_up_steps(client))
            _check_warm_up(checks, pinned, responses["warm"])
            before = client.metrics()["metrics"]
            wall, results, loop_samples = _loop(fleet.socket, plan)
            after = client.metrics()["metrics"]
        return {"setup_s": start_s + sum(measured.values()),
                "setup_scale": factor(before_start + setup_samples),
                "wall": wall, "loop_scale": factor(loop_samples),
                "results": results, "delta": _delta(before, after),
                "rss_mb": fleet.peak_rss_mb()}
    finally:
        fleet.stop()


def _delta(before: dict, after: dict) -> dict:
    out = {}
    for name, value in after["counters"].items():
        out[name] = value - before["counters"].get(name, 0)
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name, {})
        out[name + ".total"] = hist["total"] - old.get("total", 0.0)
        out[name + ".count"] = hist["count"] - old.get("count", 0)
    return out


# -- checks -------------------------------------------------------------
def _check_results(checks: Checks, plan: list, results: list, pinned: dict,
                   eco_answers: dict) -> None:
    for index, _seconds, outcome in results:
        kind, op, fields = plan[index]
        if isinstance(outcome, Exception):
            checks.op(False, f"request {index} ({op}) failed: {outcome!r}")
        elif kind == "warm":
            label = warm_label(op, fields)
            checks.expect(stable_digest(op, outcome), pinned[label]["sha256"],
                          f"warm {label}")
        else:
            eco_answers.setdefault(index, []).append(outcome)


def eco_reference(text: str) -> dict:
    """A storeless in-process ``cone_classify`` of one ECO netlist."""
    from repro.circuit.bench import parse_bench
    from repro.classify.conditions import Criterion
    from repro.incremental import cone_classify

    result = cone_classify(parse_bench(text, name="remote"), Criterion.FS).result
    return {"total_logical": result.total_logical, "accepted": result.accepted,
            "edges_visited": result.edges_visited}


def _check_eco(checks: Checks, plan: list, eco_answers: dict) -> None:
    """Every ECO answer equals ``eco_reference`` of the same netlist text.
    The references are computed after every timed interval, in
    ``CHECK_PROCESSES`` processes, one per CPU of the host it was sized on."""
    indices = sorted(eco_answers)
    with ProcessPoolExecutor(CHECK_PROCESSES, mp_context=get_context("fork")) as pool:
        wants = list(pool.map(eco_reference,
                              [plan[index][2]["bench"] for index in indices]))
    for index, want in zip(indices, wants):
        for answer in eco_answers[index]:
            got = {key: answer.get(key) for key in want}
            checks.expect(got, want, f"ECO request {index}")


# -- the run ------------------------------------------------------------
def _service_layers(delta: dict, client_s: float, wall: float) -> dict:
    """Per-layer metrics of one repetition (averaged over repetitions)."""
    out = {name: 0.0 for name in PER_LAYER}
    fleet_s = delta.get("fleet.request_seconds.total", 0.0)
    worker_s = delta.get("service.request_seconds.total", 0.0)
    out.update({
        "service.client_s": client_s,
        "service.fleet_s": fleet_s,
        "service.worker_s": worker_s,
        "service.wire_s": client_s - fleet_s,
        "service.forward_s": fleet_s - worker_s,
        "store.get_s": delta.get("store.get_seconds.total", 0.0),
        "store.put_s": delta.get("store.put_seconds.total", 0.0),
        "store.gets": delta.get("store.gets", 0),
        "store.hit_ratio": ratio(delta.get("store.hits", 0), delta.get("store.gets", 0)),
        "store.cone_hit_ratio": ratio(delta.get("store.cone_hits", 0),
                                      delta.get("store.cone_gets", 0)),
        "incremental.conefp_s": delta.get("span.conefp.total", 0.0),
        "incremental.cones_dirty": delta.get("incremental.cones_dirty", 0),
        "incremental.cones_clean": delta.get("incremental.cones_clean", 0),
        "classify.pass_s": delta.get("span.classify.pass.total", 0.0),
        "classify.passes": delta.get("span.classify.pass.count", 0),
        "classify.edges": delta.get("engine.edges_visited", 0),
        "paths.count_s": delta.get("span.paths.count.total", 0.0),
        "paths.count_calls": delta.get("span.paths.count.count", 0),
        "verdict.queries": delta.get("verdict.queries", 0),
        "verdict.conflicts": delta.get("verdict.conflicts", 0),
        "verdict.decisions": delta.get("verdict.decisions", 0),
        "signoff.candidates": delta.get("signoff.candidates", 0),
        "signoff.prefilter_rejects": delta.get("signoff.prefilter_rejects", 0),
        "signoff.confirmed_ratio": ratio(delta.get("signoff.robust_confirmed", 0),
                                         delta.get("signoff.candidates", 0)),
        "fleet.coalesce_hits": delta.get("fleet.coalesce_hits", 0),
        "fleet.retries": delta.get("fleet.retries", 0),
        "fleet.shed": delta.get("fleet.shed", 0),
        "fleet.errors": delta.get("fleet.errors", 0),
        "service.errors": delta.get("service.errors", 0),
        "trace.wall_s": wall,
        "trace.overhead_s": 0.0,
    })
    out["incremental.reuse_ratio"] = ratio(
        out["incremental.cones_clean"],
        out["incremental.cones_clean"] + out["incremental.cones_dirty"],
    )
    out["classify.edges_per_s"] = ratio(out["classify.edges"], out["classify.pass_s"])
    # worker time outside the worker-side spans and store timers
    out["unattributed_s"] = worker_s - sum(
        out[key] for key in ("store.get_s", "store.put_s", "incremental.conefp_s",
                             "classify.pass_s", "paths.count_s")
    )
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    pinned = reference()["service"]
    checks = Checks()
    plan = make_plan(seed)
    reps = [
        _repetition(rep, plan, checks, pinned)
        for rep in range(max(MIN_REPETITIONS, pass_count(seconds, NOMINAL_REP_S)))
    ]
    shutil.rmtree(TMP, ignore_errors=True)

    eco_answers: dict = {}
    for rep in reps:
        _check_results(checks, plan, rep["results"], pinned, eco_answers)
    _check_eco(checks, plan, eco_answers)

    def scaled(kind):
        """``kind`` latencies, scaled to the reference host speed"""
        return [s * rep["loop_scale"] for rep in reps
                for i, s, _ in rep["results"] if plan[i][0] == kind]

    warm = scaled("warm")
    walls = [rep["wall"] * rep["loop_scale"] for rep in reps]
    metrics = {
        "setup_s": statistics.median(
            rep["setup_s"] * rep["setup_scale"] for rep in reps
        ),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(rep["rss_mb"] for rep in reps),
        "ops_per_s": len(warm) / sum(walls),
        "passes": len(reps),
        **latency_summary("op", warm),
        **latency_summary("eco", scaled("eco")),
        "measured_setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "measured_wall_s": statistics.median(rep["wall"] for rep in reps),
    }
    delta: dict = {}
    for rep in reps:
        for name, value in rep["delta"].items():
            delta[name] = delta.get(name, 0) + value / len(reps)
    for name in ("fleet.errors", "fleet.shed", "fleet.retries", "service.errors"):
        metrics[name] = delta.get(name, 0) * len(reps)
    if trace:
        # Layers are read from counters and timers the program always
        # keeps; no wrapper is installed, so tracing costs nothing here.
        client_s = sum(s for rep in reps for _i, s, _o in rep["results"]) / len(reps)
        metrics["per_layer"] = _service_layers(
            delta, client_s, statistics.mean(rep["wall"] for rep in reps)
        )
    return {"metrics": metrics, "checks": checks}
