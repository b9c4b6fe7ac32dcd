"""Command-line interface: ``repro-rd`` / ``python -m repro``.

Subcommands::

    repro-rd list                         # suite circuits
    repro-rd info s499-ecc --json         # stats + path counts
    repro-rd classify s1355-par --criterion sigma --sort heu2
    repro-rd classify c17 --store results.sqlite   # persistent cache
    repro-rd classify c17 --remote 127.0.0.1:7463  # via the daemon
    repro-rd baseline apex-a --method exact
    repro-rd compare-sorts c17 --sorts pin,heu2    # coverage per sort
    repro-rd sweep ripple_carry --params 2,4,8     # scaling study
    repro-rd table1 / table2 / table3 / figures
    repro-rd serve --port 7463 --store results.sqlite
    repro-rd metrics --remote 127.0.0.1:7463       # daemon telemetry
    repro-rd cache stats results.sqlite   # also: gc, clear
    repro-rd info my_circuit.bench        # file inputs work everywhere

Run-style subcommands take only the flag groups they act on, each
declared once in a parent parser (:func:`_flag_groups`): pool
(``--jobs``, ``--task-budget``, ``--retries``: one
:class:`~repro.experiments.supervisor.TaskRunner` for every fan-out),
store (``--store``), checkpoint (``--checkpoint``, ``--resume``) and
telemetry (``--trace-out``, ``-v``).  Any other flag, and any numeric
value out of range, is an argparse error (exit 2).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from repro import loading
from repro.baseline.exact_assignment import baseline_rd
from repro.circuit.netlist import Circuit
from repro.circuit.stats import circuit_stats, internal_fanout_count
from repro.classify.conditions import CRITERIA, Criterion
from repro.classify.session import (
    SORT_KINDS,
    CircuitSession,
    format_session_stats,
)
from repro.errors import ReproError
from repro.experiments.supervisor import DEFAULT_MAX_RETRIES, TaskRunner
from repro.gen.suite import SUITE
from repro.obs import export_jsonl, format_metrics, get_registry
from repro.sorting.heuristics import random_sort
from repro.util.serialize import classification_payload, info_payload, to_json


def package_version() -> str:
    """The installed distribution's version, falling back to the
    package constant for source-tree (PYTHONPATH) runs."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def load_circuit(spec: str) -> Circuit:
    """A suite name, a ``.bench`` file, or a ``.pla`` file — resolved by
    the unified adapter; sequential ``.bench`` netlists are auto
    scan-expanded to their combinational core."""
    return loading.as_core(spec)


def _make_sort(session: CircuitSession, kind: str, seed: int, max_accepted=None):
    """A named sort: ``random`` here, every other kind through
    :meth:`CircuitSession.sort` (store-cached, budget-aware)."""
    if kind == "random":
        return random_sort(session.circuit, seed=seed)
    return session.sort(kind, max_accepted)


#: ``--max-accepted`` help of the commands that classify with a named sort
_MAX_ACCEPTED_HELP = (
    "abort after this many accepted paths in any pass, Heuristic 2's "
    "FS/NR sort passes included"
)


# -- flag groups and numeric types -------------------------------------------

def _number(kind: type, *, positive: "bool | None"):
    """An argparse type: a ``kind`` (int or float) that is > 0
    (``positive``), >= 0 (``positive=False``) or any value
    (``positive=None``), rejected with a one-line usage error.  A float
    must also be finite: NaN and ±inf are refused."""
    floor = {True: "positive ", False: "non-negative ", None: ""}[positive]
    noun = "integer" if kind is int else "number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            )
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"must be a finite {noun}, got {value}"
            )
        if positive is not None and not (value > 0 if positive else value >= 0):
            raise argparse.ArgumentTypeError(
                f"must be a {floor}{noun}, got {value}"
            )
        return value

    return parse


_positive_int = _number(int, positive=True)
_non_negative_int = _number(int, positive=False)
_positive_float = _number(float, positive=True)
_non_negative_float = _number(float, positive=False)
_finite_float = _number(float, positive=None)


def _flag_groups() -> "tuple[argparse.ArgumentParser, ...]":
    """The run commands' flag groups as parent parsers — ``(pool,
    store, checkpoint, telemetry)``; each command lists the groups it
    acts on."""
    pool, store, checkpoint, telemetry = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    g = pool.add_argument_group("pool options")
    g.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes (work fans out; 1 = in-process)",
    )
    g.add_argument(
        "--task-budget", dest="task_timeout", type=_positive_float,
        default=None, metavar="SECONDS",
        help="flat wall-clock budget for every pool task (default: "
        "derived from each circuit's exact path count for table and "
        "sweep rows, none elsewhere; --jobs > 1 only)",
    )
    g.add_argument(
        "--retries", dest="max_retries", type=_non_negative_int,
        default=DEFAULT_MAX_RETRIES, metavar="N",
        help="pool retries per task before the in-process rerun "
        f"(default {DEFAULT_MAX_RETRIES})",
    )
    store.add_argument_group("store options").add_argument(
        "--store", metavar="FILE", default=None,
        help="persistent result store shared by all workers "
        "(SQLite; created if missing)",
    )
    g = checkpoint.add_argument_group("checkpoint options")
    g.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="stream completed rows to this JSONL file",
    )
    g.add_argument(
        "--resume", action="store_true",
        help="skip work already recorded in --checkpoint",
    )
    g = telemetry.add_argument_group("telemetry options")
    g.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write tracing spans plus a merged metrics snapshot as "
        "JSON lines when the command finishes",
    )
    g.add_argument(
        "-v", "--verbose", action="store_true",
        help="print telemetry (session cache counters, metrics summary)",
    )
    return pool, store, checkpoint, telemetry


def _runner(args: argparse.Namespace) -> TaskRunner:
    """The one supervision policy of a run: ``--jobs``,
    ``--task-budget`` and ``--retries``."""
    return TaskRunner(
        jobs=args.jobs,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
    )


def _print_metrics_summary() -> None:
    print("-- metrics --")
    print(format_metrics(get_registry().snapshot()))


# -- subcommands ------------------------------------------------------------

def cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(SUITE):
        print(name)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    counts = CircuitSession(circuit).counts
    if args.json:
        print(to_json(info_payload(
            circuit, counts, internal_fanout_count(circuit)
        )))
        return 0
    print(circuit_stats(circuit))
    print(f"internal fanout stems: {internal_fanout_count(circuit)}")
    print(f"physical paths: {counts.total_physical:,}")
    print(f"logical paths:  {counts.total_logical:,}")
    flat = circuit.flat
    histogram = ", ".join(
        f"{name}={count}" for name, count in flat.gate_type_histogram().items()
    )
    print(f"flat IR: {histogram}")
    print(
        f"flat IR: {flat.num_leads} leads, "
        f"{flat.bitset_words} bitset word(s) per lead condition, "
        f"built in {flat.build_s * 1000:.2f} ms"
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    if args.remote is not None:
        return _classify_remote(args)
    session = CircuitSession(load_circuit(args.circuit), store=args.store)
    criterion = CRITERIA[args.criterion]
    sort_used = None
    if args.jobs > 1 and criterion is not Criterion.SIGMA_PI:
        # FS/NR decompose per PO cone (every path lies in exactly one
        # cone), so --jobs fans the cones out across a supervised pool
        from repro.incremental import cone_classify

        result = cone_classify(
            session.circuit,
            criterion,
            max_accepted=args.max_accepted,
            store=session.store,
            runner=_runner(args),
            session_stats=session.stats,
        ).result
    else:
        if args.jobs > 1:
            print(
                "warning: --jobs has no effect for --criterion sigma "
                "(the input sort is global); running in-process",
                file=sys.stderr,
            )
        sort = None
        if criterion is Criterion.SIGMA_PI:
            sort = _make_sort(session, args.sort, args.seed, args.max_accepted)
            sort_used = args.sort
        result = session.classify(
            criterion, sort=sort, max_accepted=args.max_accepted
        )
    if args.json:
        print(to_json(classification_payload(
            result,
            fingerprint=session.fingerprint,
            sort_kind=sort_used,
            session_stats=session.stats.to_dict(),
        )))
        return 0
    print(result)
    if args.verbose:
        print(format_session_stats(session.stats.to_dict()))
        _print_metrics_summary()
    return 0


def _remote_circuit(spec: str) -> "Circuit | str":
    """What a ``--remote`` request sends for ``spec``: a netlist file
    loads here (and travels as ``.bench`` text); anything else travels
    as a suite name for the server's generator to build."""
    path = Path(spec)
    if path.suffix in (".bench", ".pla") and path.exists():
        return load_circuit(spec)
    return spec


def _classify_remote(args: argparse.Namespace) -> int:
    """``classify --remote``: send the request to a running daemon."""
    from repro.service.client import RetryPolicy, ServiceClient

    events = []
    # bounded retry with jittered backoff: a fleet worker respawning
    # (or a daemon restart) is invisible to the CLI user
    with ServiceClient.connect(args.remote, retry=RetryPolicy()) as client:
        result = client.classify(
            circuit=_remote_circuit(args.circuit),
            criterion=args.criterion,
            # --sort applies to sigma only; fs/nr requests leave it out
            sort=args.sort if args.criterion == "sigma" else None,
            max_accepted=args.max_accepted,
            on_event=events.append if args.verbose else None,
        )
    if args.json:
        print(to_json(result))
        return 0
    from repro.classify.results import ClassificationResult

    shown = ClassificationResult(
        result["name"], Criterion[result["criterion"]],
        result["total_logical"], result["accepted"], result["elapsed"],
    )
    print(f"{shown} (remote {args.remote})")
    if args.verbose:
        for event in events:
            print(f"  event: {event}")
        print(f"  {format_session_stats(result['session'])}")
        print(f"  fingerprint: {result['fingerprint']}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.circuit)
    result = baseline_rd(circuit, method=args.method)
    print(result)
    if args.verbose:
        _print_metrics_summary()
    return 0


def cmd_compare_sorts(args: argparse.Namespace) -> int:
    """Sampled robust fault coverage per input sort (Section III)."""
    from repro.experiments.coverage_study import compare_sorts
    from repro.experiments.supervisor import RowFailure

    circuit = load_circuit(args.circuit)
    kinds = [kind.strip() for kind in args.sorts.split(",") if kind.strip()]
    session = CircuitSession(circuit)
    sorts = {
        kind: _make_sort(session, kind, args.seed)
        for kind in kinds
    }
    estimates = compare_sorts(
        circuit,
        sorts,
        sample_size=args.sample_size,
        seed=args.seed,
        runner=_runner(args),
    )
    failed = 0
    for label in kinds:
        estimate = estimates[label]
        if isinstance(estimate, RowFailure):
            failed += 1
            print(f"!! {estimate}")
        else:
            print(estimate)
    if args.verbose:
        _print_metrics_summary()
    return 1 if failed else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Scaling sweep over one generator family (the Table-II narrative)."""
    from repro.experiments.supervisor import RowFailure
    from repro.experiments.sweep import FAMILIES, SweepPoint, sweep_family
    from repro.util.tables import TextTable

    try:
        parameters = [int(p) for p in args.params.split(",") if p.strip()]
    except ValueError:
        raise SystemExit(f"--params must be comma-separated ints: {args.params!r}")
    if not parameters:
        raise SystemExit("--params needs at least one value")
    points = sweep_family(
        FAMILIES[args.family],
        parameters,
        classification_budget=args.budget,
        runner=_runner(args),
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    table = TextTable(
        ["param", "gates", "logical paths", "accepted", "classify time"],
        title=f"Sweep: {args.family}",
    )
    for parameter, point in zip(parameters, points):
        if isinstance(point, RowFailure):
            table.add_row([str(parameter)] + ["FAILED"] * 4)
            continue
        assert isinstance(point, SweepPoint)
        table.add_row([
            str(point.parameter),
            f"{point.gates:,}",
            f"{point.total_logical:,}",
            "(skipped)" if point.accepted is None else f"{point.accepted:,}",
            "-" if point.classify_seconds is None
            else f"{point.classify_seconds:.3f}s",
        ])
    print(table.render())
    if args.verbose:
        _print_metrics_summary()
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a telemetry snapshot — the daemon's (``--remote``) or this
    process's registry (mostly useful under ``--json`` for tooling)."""
    if args.remote is not None:
        from repro.service.client import ServiceClient

        with ServiceClient.connect(args.remote) as client:
            result = client.metrics()
        if args.json:
            print(to_json(result))
            return 0
        print(
            f"repro-rd {result.get('version', '?')} at {args.remote}, "
            f"up {result.get('uptime', 0.0):.1f}s"
        )
        print(format_metrics(result.get("metrics") or {}))
        return 0
    snapshot = get_registry().snapshot()
    if args.json:
        print(to_json({"metrics": snapshot}))
        return 0
    print(format_metrics(snapshot))
    return 0


def cmd_testgen(args: argparse.Namespace) -> int:
    """Generate robust delay tests for the non-RD paths of a circuit."""
    from repro.delaytest.testability import robust_test

    circuit = load_circuit(args.circuit)
    session = CircuitSession(circuit)
    sort = _make_sort(session, args.sort, 0, args.max_accepted)
    must_test: list = []
    result = session.classify(
        Criterion.SIGMA_PI, sort=sort,
        max_accepted=args.max_accepted, on_path=must_test.append,
    )
    print(result)
    shown = 0
    untestable = 0
    for lp in must_test:
        if args.limit is not None and shown + untestable >= args.limit:
            remaining = len(must_test) - shown - untestable
            print(f"... {remaining} more paths (raise --limit)")
            break
        pair = robust_test(circuit, lp)
        if pair is None:
            untestable += 1
            print(f"UNTESTABLE  {lp.describe(circuit)}")
            continue
        shown += 1
        v1 = "".join(map(str, pair[0]))
        v2 = "".join(map(str, pair[1]))
        print(f"<{v1},{v2}>  {lp.describe(circuit)}")
    print(f"{shown} robust tests, {untestable} robustly untestable")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    """Threshold path selection with RD filtering (Section VI)."""
    from repro.selection.strategies import select_by_threshold
    from repro.timing.delays import unit_delays
    from repro.timing.pathdelay import logical_path_delay

    circuit = load_circuit(args.circuit)
    session = CircuitSession(circuit)
    sort = _make_sort(session, args.sort, 0, args.max_accepted)
    must_test: set = set()
    session.classify(
        Criterion.SIGMA_PI, sort=sort,
        max_accepted=args.max_accepted, on_path=must_test.add,
    )
    delays = unit_delays(circuit)
    from repro.paths.enumerate import enumerate_logical_paths

    max_delay = max(
        logical_path_delay(circuit, lp, delays)
        for lp in enumerate_logical_paths(circuit)
    )
    threshold = args.fraction * max_delay
    selection = select_by_threshold(circuit, delays, threshold, must_test)
    print(f"longest path delay (unit model): {max_delay:g}")
    print(selection)
    return 0


def cmd_sta(args: argparse.Namespace) -> int:
    """Static timing analysis + the k slowest logical paths."""
    from repro.timing.delays import random_delays, unit_delays
    from repro.timing.kpaths import k_longest_paths
    from repro.timing.sta import static_timing

    circuit = load_circuit(args.circuit)
    if args.delays == "unit":
        delays = unit_delays(circuit)
    else:
        delays = random_delays(circuit, seed=args.seed)
    report = static_timing(circuit, delays)
    print(f"critical delay: {report.critical_delay:g}")
    for po in circuit.outputs:
        print(f"  {circuit.gate_name(po)}: arrival {report.po_arrival(po):g}")
    if args.k:
        print(f"{args.k} slowest logical paths:")
        for delay, lp in k_longest_paths(circuit, delays, args.k):
            print(f"  {delay:10.3f}  {lp.describe(circuit)}")
    return 0


def cmd_atpg(args: argparse.Namespace) -> int:
    """Run the full stuck-at ATPG flow (collapse/generate/simulate)."""
    from repro.atpg.flow import run_atpg

    circuit = load_circuit(args.circuit)
    result = run_atpg(
        circuit,
        engine=args.engine,
        random_burst=args.random_burst,
        seed=args.seed,
    )
    print(result)
    if args.show_redundant:
        for fault in sorted(result.redundant, key=lambda f: (f.lead, f.value)):
            print(f"  redundant: {fault.describe(circuit)}")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Export a circuit (optionally a stabilizing system) as DOT."""
    from repro.circuit.dot import to_dot
    from repro.stabilize.system import compute_stabilizing_system

    circuit = load_circuit(args.circuit)
    highlight = None
    if args.stabilize is not None:
        bits = args.stabilize
        if len(bits) != len(circuit.inputs) or set(bits) - set("01"):
            raise SystemExit(
                f"--stabilize needs {len(circuit.inputs)} bits of 0/1"
            )
        if args.po >= len(circuit.outputs):
            raise SystemExit(
                f"--po needs an output index below {len(circuit.outputs)}"
            )
        vector = tuple(int(b) for b in bits)
        system = compute_stabilizing_system(
            circuit, circuit.outputs[args.po], vector
        )
        highlight = system.leads
    print(to_dot(circuit, highlight_leads=highlight), end="")
    return 0


def cmd_version(_args: argparse.Namespace) -> int:
    print(f"repro-rd {package_version()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon (or, with --workers, the sharded fleet)
    until SIGTERM/SIGINT."""
    import asyncio

    if (args.socket is None) == (args.port is None):
        raise SystemExit("serve needs exactly one of --socket PATH or --port N")
    if args.port is not None and args.port > 65535:
        raise SystemExit(f"--port must be at most 65535, got {args.port}")

    def announce(address: str) -> None:
        where = address if args.socket else f"tcp://{address}"
        what = (
            f"fleet ({args.workers} workers)" if args.workers else "serving"
        )
        print(
            f"repro-rd {package_version()} {what} on {where}", flush=True
        )

    if args.workers is not None:
        from repro.service.fleet import serve_fleet

        return asyncio.run(
            serve_fleet(
                host=args.host,
                port=args.port,
                socket_path=args.socket,
                store=args.store,
                workers=args.workers,
                concurrency=args.concurrency,
                default_deadline=args.deadline,
                max_accepted=args.max_accepted,
                max_pending=args.max_pending,
                ready=announce,
            )
        )
    from repro.service.server import serve

    return asyncio.run(
        serve(
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            store=args.store,
            concurrency=args.concurrency,
            default_deadline=args.deadline,
            max_accepted=args.max_accepted,
            ready=announce,
        )
    )


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain a persistent result store."""
    from repro.store.db import ResultStore

    if args.action != "stats" and not Path(args.store).exists():
        raise SystemExit(f"no store at {args.store!r}")
    with ResultStore(args.store) as store:
        if args.action == "stats":
            print(store.stats().render())
        elif args.action == "gc":
            removed = store.gc(max_age_days=args.max_age_days)
            print(f"removed {removed} entries")
        else:  # clear
            removed = store.clear()
            print(f"removed {removed} entries")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Cone-level structural diff of two netlists (the ECO preview)."""
    from repro.incremental import diff_circuits

    diff = diff_circuits(load_circuit(args.base), load_circuit(args.edited))
    if args.json:
        print(to_json(diff.to_dict()))
    else:
        print(diff.render())
    return 0


def cmd_reanalyze(args: argparse.Namespace) -> int:
    """The ECO flow: reuse every CLEAN cone's stored results, recompute
    only DIRTY cones, report the reuse ratio."""
    from repro.incremental import reanalyze

    if args.store is None:
        raise SystemExit("reanalyze requires --store FILE")
    base = load_circuit(args.base)
    edited = load_circuit(args.edited)
    criterion = CRITERIA[args.criterion]
    sort = args.sort if criterion is Criterion.SIGMA_PI else None
    report = reanalyze(
        base,
        edited,
        args.store,
        criterion=criterion,
        sort=sort,
        max_accepted=args.max_accepted,
        runner=_runner(args),
    )
    return _print_report(args, report)


def cmd_tightness(args: argparse.Namespace) -> int:
    """Exact vs. approximate RD% (the Lemma-2 gap) via repro.verdict."""
    criterion = CRITERIA[args.criterion]
    if args.remote is not None:
        report = _tightness_remote(args, criterion)
    else:
        from repro.verdict import run_tightness

        report = run_tightness(
            [load_circuit(spec) for spec in args.circuits] or None,
            criterion,
            args.sort,
            store=args.store,
            runner=_runner(args),
            max_inputs=args.max_inputs,
            max_accepted=args.max_accepted,
        )
    return _print_report(args, report)


def _tightness_remote(args: argparse.Namespace, criterion: Criterion):
    """``tightness --remote``: :func:`~repro.verdict.run_tightness`'s
    sweep (PI ceiling, budget SKIP rows, report), each decided row one
    daemon request."""
    from repro.errors import ClassifyError, RemoteError
    from repro.service.client import RetryPolicy, ServiceClient
    from repro.verdict.tightness import (
        TightnessRow,
        _sweep,
        default_suite_circuits,
    )

    sent = {}  # each circuit -> what its request carries
    for spec in args.circuits or default_suite_circuits(args.max_inputs):
        wire = _remote_circuit(spec)
        sent[wire if isinstance(wire, Circuit) else load_circuit(spec)] = wire

    with ServiceClient.connect(args.remote, retry=RetryPolicy()) as client:

        def decide(circuit: Circuit) -> TightnessRow:
            try:
                return TightnessRow.from_dict(client.tightness(
                    circuit=sent[circuit],
                    criterion=args.criterion,
                    sort=args.sort,
                    max_accepted=args.max_accepted,
                ))
            except RemoteError as exc:
                if exc.error_type == ClassifyError.__name__:
                    raise ClassifyError(exc.message) from exc
                raise

        return _sweep(
            list(sent), criterion, args.sort, args.max_inputs,
            args.max_accepted, decide,
        )


def _signoff_delays(args: argparse.Namespace) -> "tuple[str, dict | None]":
    """Resolve ``--delays`` into ``(base, annotations)``.

    ``unit`` / ``random`` pick the fallback family; a path reads a
    sidecar-format annotation file that overlays (and, when complete,
    fully replaces) the fallback.
    """
    spec = args.delays
    if spec in ("random", "unit"):
        return spec, None
    from repro.timing.annotate import parse_delays_file

    return "random", parse_delays_file(spec)


def cmd_signoff(args: argparse.Namespace) -> int:
    """K-longest / above-slack robustly-testable paths (repro.signoff)."""
    if args.remote is not None:
        return _signoff_remote(args)
    from repro.signoff import signoff

    base, annotations = _signoff_delays(args)
    report = signoff(
        args.circuit,
        k=args.k,
        slack=args.slack,
        scan=True if args.scan else None,
        annotations=annotations,
        seed=args.seed,
        base=base,
        store=args.store,
        runner=_runner(args),
    )
    return _print_report(args, report)


def _signoff_remote(args: argparse.Namespace) -> int:
    """``signoff --remote``: one daemon request per capture domain."""
    from repro.service.client import RetryPolicy, ServiceClient
    from repro.signoff import signoff_remote

    base, annotations = _signoff_delays(args)
    with ServiceClient.connect(args.remote, retry=RetryPolicy()) as client:
        report = signoff_remote(
            args.circuit,
            client,
            k=args.k,
            slack=args.slack,
            scan=True if args.scan else None,
            annotations=annotations,
            seed=args.seed,
            base=base,
        )
    return _print_report(args, report)


def _print_report(args: argparse.Namespace, report) -> int:
    """The output tail of reanalyze, tightness and signoff, local or
    remote: JSON or the table, plus the metrics summary for a verbose
    local run."""
    if args.json:
        print(to_json(report.to_dict()))
    else:
        print(report.render())
        if args.verbose and getattr(args, "remote", None) is None:
            _print_metrics_summary()
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """``table1`` / ``table2`` / ``table3``: regenerate one of the
    paper's tables (``--json`` on table1/table3)."""
    from importlib import import_module

    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint FILE")
    module = import_module(f"repro.experiments.{args.command}")
    kwargs = {
        "runner": _runner(args),
        "checkpoint": args.checkpoint,
        "resume": args.resume,
        "store": args.store,
    }
    if getattr(args, "json", False):
        from repro.experiments import report

        _table, rows = module.run(**kwargs)
        print(to_json(getattr(report, f"{args.command}_to_dict")(rows)))
        return 0
    if args.command != "table2":  # Table II prints no per-row stats
        kwargs["verbose"] = args.verbose
    module.main(**kwargs)
    if args.verbose:
        _print_metrics_summary()
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.experiments import figures

    figures.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rd",
        description="Robust dependent path delay fault identification (DAC'95)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-rd {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pool, store, checkpoint, telemetry = _flag_groups()

    sub.add_parser("list", help="list suite circuits").set_defaults(fn=cmd_list)

    sub.add_parser(
        "version", help="print the package version"
    ).set_defaults(fn=cmd_version)

    p = sub.add_parser("info", help="circuit statistics and path counts")
    p.add_argument("circuit", help="suite name or .bench/.pla file")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser(
        "classify", parents=[pool, store, telemetry],
        help="run the RD classifier",
    )
    p.add_argument("circuit")
    p.add_argument(
        "--criterion", choices=sorted(CRITERIA), default="sigma",
        help="fs = functional sensitizability, nr = non-robust "
        "testability, sigma = LP(sigma^pi) (default)",
    )
    p.add_argument(
        "--sort", choices=[*SORT_KINDS, "random"],
        default="heu2", help="input sort for --criterion sigma",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --sort random")
    p.add_argument(
        "--max-accepted", type=_non_negative_int, default=None,
        help=_MAX_ACCEPTED_HELP + "; with --jobs N and --criterion fs|nr "
        "the passes run per output cone and this is a per-cone budget, "
        "as for reanalyze",
    )
    p.add_argument(
        "--remote", metavar="HOST:PORT|SOCKET", default=None,
        help="send the request to a running 'repro-rd serve' daemon",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser(
        "baseline", parents=[telemetry], help="run the exact baseline of [1]"
    )
    p.add_argument("circuit")
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser(
        "compare-sorts", parents=[pool, telemetry],
        help="sampled robust fault coverage per input sort",
    )
    p.add_argument("circuit")
    p.add_argument(
        "--sorts", default=",".join(SORT_KINDS),
        help="comma-separated sort names to compare",
    )
    p.add_argument(
        "--sample-size", type=_positive_int, default=100,
        help="paths SAT-sampled per sort",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(fn=cmd_compare_sorts)

    from repro.experiments.sweep import FAMILIES

    p = sub.add_parser(
        "sweep", parents=[pool, checkpoint, telemetry],
        help="scaling sweep over one generator family",
    )
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument(
        "--params", required=True, metavar="N,N,...",
        help="comma-separated family parameters (e.g. widths)",
    )
    p.add_argument(
        "--budget", type=_non_negative_int, default=500_000,
        help="max accepted paths before a point degrades to count-only",
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "testgen", help="robust two-pattern tests for the non-RD paths"
    )
    p.add_argument("circuit")
    p.add_argument(
        "--sort", choices=[*SORT_KINDS, "random"],
        default="heu2",
    )
    p.add_argument("--limit", type=_non_negative_int, default=20,
                   help="max paths to print tests for")
    p.add_argument("--max-accepted", type=_non_negative_int,
                   default=100_000, help=_MAX_ACCEPTED_HELP)
    p.set_defaults(fn=cmd_testgen)

    p = sub.add_parser(
        "select", help="threshold path selection with RD filtering"
    )
    p.add_argument("circuit")
    p.add_argument("--fraction", type=_finite_float, default=0.8,
                   help="threshold as a fraction of the longest path delay")
    p.add_argument(
        "--sort", choices=[*SORT_KINDS, "random"],
        default="heu2",
    )
    p.add_argument("--max-accepted", type=_non_negative_int,
                   default=100_000, help=_MAX_ACCEPTED_HELP)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("sta", help="static timing + k slowest paths")
    p.add_argument("circuit")
    p.add_argument("--delays", choices=["unit", "random"], default="unit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "-k", type=_non_negative_int, default=5,
        help="paths to list (0 = none)",
    )
    p.set_defaults(fn=cmd_sta)

    p = sub.add_parser("atpg", help="full stuck-at ATPG flow")
    p.add_argument("circuit")
    p.add_argument("--engine", choices=["podem", "sat"], default="podem")
    p.add_argument("--random-burst", type=_non_negative_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-redundant", action="store_true")
    p.set_defaults(fn=cmd_atpg)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("circuit")
    p.add_argument(
        "--stabilize", metavar="BITS", default=None,
        help="highlight the stabilizing system for this input vector",
    )
    p.add_argument(
        "--po", type=_non_negative_int, default=0,
        help="output index for --stabilize",
    )
    p.set_defaults(fn=cmd_dot)

    for number in ("1", "2", "3"):
        p = sub.add_parser(
            f"table{number}", parents=[pool, store, checkpoint, telemetry],
            help=f"regenerate Table {'I' * int(number)}",
        )
        if number != "2":
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=cmd_table)
    sub.add_parser("figures", help="regenerate Figures 1-5").set_defaults(
        fn=cmd_figures
    )

    p = sub.add_parser(
        "serve", help="run the analysis daemon (or a sharded fleet)",
        epilog="exit status: 0 after a drained SIGTERM; 130 after "
        "SIGINT (Ctrl-C) — both drain in-flight requests first",
    )
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="listen on a unix socket")
    p.add_argument("--port", type=_non_negative_int, default=None,
                   help="listen on TCP (0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p.add_argument(
        "--store", metavar="FILE", default=None,
        help="persistent result store backing the session pool",
    )
    p.add_argument(
        "--concurrency", type=_positive_int, default=8,
        help="max classifications in flight per process (default 8)",
    )
    p.add_argument(
        "--deadline", type=_positive_float, default=None,
        metavar="SECONDS",
        help="flat per-request wall-clock budget (default: derived "
        "from each circuit's exact path count)",
    )
    p.add_argument(
        "--max-accepted", type=_non_negative_int, default=None,
        help="server-wide abort threshold on accepted paths, also "
        "bounding Heuristic 2's FS/NR sort passes",
    )
    p.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="run a supervised fleet of N worker processes sharded by "
        "circuit fingerprint, with single-flight request coalescing "
        "(default: one in-process server, no fleet)",
    )
    p.add_argument(
        "--max-pending", type=_positive_int, default=64, metavar="N",
        help="fleet only: bounded pending queue per worker; beyond it "
        "requests are shed with a structured 'Overloaded' error "
        "(default 64)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "metrics", help="render a telemetry snapshot (daemon or local)"
    )
    p.add_argument(
        "--remote", metavar="HOST:PORT|SOCKET", default=None,
        help="fetch the snapshot from a running 'repro-rd serve' daemon",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "diff", help="cone-level structural diff of two netlists"
    )
    p.add_argument("base", help="suite name or .bench/.pla file")
    p.add_argument("edited", help="suite name or .bench/.pla file")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "reanalyze", parents=[pool, store, telemetry],
        help="incremental (ECO) re-classification via the cone store",
    )
    p.add_argument("base", help="suite name or .bench/.pla file")
    p.add_argument("edited", help="suite name or .bench/.pla file")
    p.add_argument(
        "--criterion", choices=sorted(CRITERIA), default="sigma",
        help="classification criterion (default sigma)",
    )
    p.add_argument(
        "--sort", choices=SORT_KINDS, default="heu2",
        help="per-cone input sort for --criterion sigma",
    )
    p.add_argument(
        "--max-accepted", type=_non_negative_int, default=None,
        help="per-cone acceptance budget, also bounding each cone's "
        "Heuristic 2 FS/NR sort passes (part of the cone store key)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_reanalyze)

    p = sub.add_parser(
        "tightness", parents=[pool, store, telemetry],
        help="exact vs. approximate RD%% per circuit (SAT-backed verdicts)",
    )
    p.add_argument(
        "circuits", nargs="*", metavar="CIRCUIT",
        help="suite names or .bench/.pla files (default: every suite "
        "circuit within --max-inputs PIs)",
    )
    p.add_argument(
        "--criterion", choices=sorted(CRITERIA), default="sigma",
        help="criterion to decide exactly (default sigma)",
    )
    p.add_argument(
        "--sort", choices=SORT_KINDS, default="heu2",
        help="input sort for --criterion sigma (default heu2)",
    )
    p.add_argument(
        "--max-inputs", type=_positive_int, default=20, metavar="N",
        help="PI ceiling for the default sweep — keeps verdicts "
        "cross-checkable against the brute-force oracle (default 20)",
    )
    p.add_argument(
        "--max-accepted", type=_non_negative_int, default=50_000,
        metavar="N",
        help="SKIP circuits where any classifier pass, Heuristic 2's "
        "FS/NR sort passes included, accepts more paths than this "
        "(bounds SAT queries per circuit; default 50000)",
    )
    p.add_argument(
        "--remote", metavar="HOST:PORT|SOCKET", default=None,
        help="send tightness requests to a running 'repro-rd serve'",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_tightness)

    p = sub.add_parser(
        "signoff", parents=[pool, store, telemetry],
        help="K-longest / above-slack robustly-testable paths under "
        "annotated delays",
    )
    p.add_argument(
        "circuit", metavar="CIRCUIT",
        help="suite name or .bench/.pla file; a sequential .bench is "
        "scan-expanded and fanned out per capture domain, and its "
        "'# delay:' annotations plus any <stem>.delays sidecar apply",
    )
    query = p.add_mutually_exclusive_group()
    query.add_argument(
        "--k", type=_positive_int, default=None, metavar="N",
        help="report the N longest robustly-testable paths (default 10)",
    )
    query.add_argument(
        "--slack", type=_finite_float, default=None, metavar="T",
        help="report every robustly-testable path with delay >= T",
    )
    p.add_argument(
        "--scan", action="store_true",
        help="require scan (sequential) interpretation of CIRCUIT",
    )
    p.add_argument(
        "--delays", default="random", metavar="FILE|unit|random",
        help="delay assignment: 'random' (deterministic from --seed, "
        "default), 'unit', or a sidecar-format annotation file",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed for the deterministic fallback delays (default 0)",
    )
    p.add_argument(
        "--remote", metavar="HOST:PORT|SOCKET", default=None,
        help="send one signoff request per capture domain to a "
        "running 'repro-rd serve'",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=cmd_signoff)

    p = sub.add_parser("cache", help="inspect/maintain a result store")
    p.add_argument("action", choices=["stats", "gc", "clear"])
    p.add_argument("store", metavar="FILE", help="store file")
    p.add_argument(
        "--max-age-days", type=_non_negative_float, default=None,
        help="for gc: also drop entries unused for this long",
    )
    p.set_defaults(fn=cmd_cache)
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # the one error exit: a budget abort, a bad netlist or a failed
        # remote request is one stderr line, not a traceback
        remote = "remote " if getattr(args, "remote", None) else ""
        print(f"{remote}{args.command} failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. `repro-rd cache stats f | head`); die
        # quietly like cat(1) instead of tracebacking
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # checkpoint records are flushed+fsynced as rows complete, so
        # whatever finished before ^C is already safe on disk
        print(
            "interrupted — completed rows (if --checkpoint was given) are "
            "on disk; rerun with --resume to continue",
            file=sys.stderr,
        )
        return 130
    finally:
        # one central exit point for --trace-out: whatever the command
        # recorded (including metrics merged back from pool workers)
        # lands in the file even on ^C
        trace_out = getattr(args, "trace_out", None)
        if trace_out:
            try:
                spans = export_jsonl(trace_out)
                print(
                    f"trace: {spans} spans + metrics snapshot -> {trace_out}",
                    file=sys.stderr,
                )
            except OSError as exc:
                print(f"trace export failed: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
