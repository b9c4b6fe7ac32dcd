"""Per-circuit experiment pipelines shared by the table generators.

A Table-I/II row runs the full paper pipeline on one circuit:

1. exact path counting (the "total no. of logical paths" column);
2. one FS pass — its RD side is the FUS column of Table I;
3. Heuristic 1: path-count input sort + one SIGMA_PI pass;
4. Heuristic 2 (Algorithm 3): FS and NR passes with per-lead counts,
   the induced sort, + one SIGMA_PI pass;
5. the inverted-Heuristic-2 control (the paper's "Heu2-bar" column).

All passes of one row run through a single
:class:`~repro.classify.session.CircuitSession`, so the exact path
counts are computed once and condition tables are reused across passes.
Timings
follow the paper's accounting: Heu1 = sort + one classification pass;
Heu2 = three classification passes + sort, the last one answered
without a DFS where FS^sup = NR^sup (Lemma 1; see
:class:`~repro.classify.session.CircuitSession`).

Multi-circuit runs fan out through the supervised
:class:`~repro.experiments.supervisor.TaskRunner` when ``jobs > 1`` (one
session per worker process); ``jobs=1`` is the deterministic in-process
fallback.  Task payloads stay tiny because circuits pickle as their bare
netlist dict (name/types/names/fanin — a few KB): workers rebuild the
flat IR, literal closures and session caches locally on first use, and
lead numbering/fingerprints come out identical on both sides by
construction, so store keys written by a worker hit from the parent.  Results are identical either way — only wall-clock changes —
because every pass is deterministic and the runner preserves input
order.  The supervisor adds per-task wall-clock budgets derived from
each circuit's exact path count, bounded retry with pool respawn on
worker crashes, and in-process degradation: a row is recorded as a
structured :class:`~repro.experiments.supervisor.RowFailure` only after
retries *and* the in-process rerun failed, so one bad circuit never
aborts a table run.

Completed rows can be streamed to a JSONL checkpoint (``checkpoint=``)
and skipped on a rerun (``resume=True``) — the final tables are
byte-identical whether a run went straight through, was resumed after a
kill, or degraded around faults.

Passing ``store=`` (a path or :class:`~repro.store.db.ResultStore`)
warm-starts every row from the persistent content-addressed cache: each
worker opens its own connection to the shared SQLite file (WAL mode
makes concurrent pool access safe), completed passes are written back,
and a repeated or resumed table run serves its classification passes and
path counts in O(1).  Rows record their session's cache counters in
``session_stats`` so callers can verify warm runs did no recounting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from repro.baseline.exact_assignment import BaselineResult, baseline_rd
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.results import ClassificationResult
from repro.classify.session import CircuitSession
from repro.errors import HarnessError
from repro.obs import span
from repro.experiments.supervisor import (
    DEFAULT_MAX_RETRIES,
    Checkpoint,
    RowFailure,
    TaskRunner,
    as_checkpoint,
    default_task_budget,
)
from repro.paths.count import count_paths
from repro.sorting.heuristics import heuristic2_analysis
from repro.sorting.input_sort import InputSort
from repro.store.db import ResultStore
from repro.util.timer import Stopwatch


def _store_spec(store: "ResultStore | str | None") -> "str | None":
    """Normalize a ``store=`` argument to a picklable path (pool tasks
    carry the path; every worker opens its own connection)."""
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return store.path
    return str(store)


def _make_runner(
    runner: "TaskRunner | None", jobs: int, max_retries: int
) -> TaskRunner:
    """The caller's preconfigured runner, or a fresh default one."""
    if runner is not None:
        return runner
    return TaskRunner(jobs=jobs, max_retries=max_retries)


def _circuit_budgets(
    circuits: "list[Circuit]", task_timeout: "float | None"
) -> "list[float]":
    """Per-task wall-clock budgets: a flat override, or derived from
    each circuit's exact logical path count (a cheap DP — no
    enumeration)."""
    if task_timeout is not None:
        return [task_timeout] * len(circuits)
    return [
        default_task_budget(count_paths(circuit).total_logical)
        for circuit in circuits
    ]


@dataclass
class Table1Row:
    """All measurements of one circuit for Tables I and II."""

    name: str
    total_logical: int
    fus_percent: float
    heu1_percent: float
    heu2_percent: float
    heu2_inverse_percent: float
    time_heu1: float
    time_heu2: float
    #: cache counters of the session that produced this row (see
    #: :meth:`~repro.classify.session.SessionStats.to_dict`); rendered
    #: by ``--verbose`` table runs, never part of the table itself
    session_stats: "dict | None" = field(default=None, compare=False)

    def check_expected_shape(self) -> list[str]:
        """The paper's qualitative claims, as violated-claim strings
        (empty = all hold).  Heu2 ≥ Heu1 is a strong trend in the paper
        (it holds for every circuit in Table I), both dominate FUS by
        Lemma 1, and the inverted sort collapses towards FUS."""
        problems = []
        if self.heu1_percent + 1e-9 < self.fus_percent:
            problems.append("Heu1 below FUS (violates Lemma 1)")
        if self.heu2_percent + 1e-9 < self.fus_percent:
            problems.append("Heu2 below FUS (violates Lemma 1)")
        if self.heu2_inverse_percent + 1e-9 < self.fus_percent:
            problems.append("inverse Heu2 below FUS (violates Lemma 1)")
        if self.heu2_inverse_percent > self.heu2_percent + 1e-9:
            problems.append("inverse sort beats Heu2")
        return problems

    def to_dict(self) -> dict:
        """JSON-safe form for checkpointing (floats round-trip exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Table1Row":
        return cls(**data)


def run_table1_row(
    circuit: Circuit,
    max_accepted: int | None = None,
    session: CircuitSession | None = None,
    store: "ResultStore | str | None" = None,
) -> Table1Row:
    """The full pipeline on one circuit (see module docstring).

    Exactly one ``count_paths`` runs per circuit: the session computes
    it lazily and every pass (including the Heuristic-1 sort) reuses it.
    With ``store=`` (ignored when a ``session`` is supplied) the counts
    and every completed pass are read through the persistent store — a
    warm row runs no enumeration at all.
    """
    if session is None:
        session = CircuitSession(circuit, store=store)
    with span("table1.row", circuit=circuit.name):
        counts = session.counts
        # --- Heuristic 1 -------------------------------------------------
        with Stopwatch() as sw1:
            sort1 = session.heuristic1_sort()
            res1 = session.classify(
                Criterion.SIGMA_PI, sort=sort1, max_accepted=max_accepted
            )
        # --- Heuristic 2 (Algorithm 3: FS + NR + final pass) -------------
        with Stopwatch() as sw2:
            analysis = heuristic2_analysis(
                circuit, max_accepted=max_accepted, session=session
            )
            res2 = session.classify(
                Criterion.SIGMA_PI,
                sort=analysis.sort,
                max_accepted=max_accepted,
            )
        # --- inverse control ---------------------------------------------
        res2_inv = session.classify(
            Criterion.SIGMA_PI,
            sort=analysis.sort.inverted(),
            max_accepted=max_accepted,
        )
    return Table1Row(
        name=circuit.name,
        total_logical=counts.total_logical,
        fus_percent=analysis.fs_result.rd_percent,
        heu1_percent=res1.rd_percent,
        heu2_percent=res2.rd_percent,
        heu2_inverse_percent=res2_inv.rd_percent,
        time_heu1=sw1.elapsed,
        time_heu2=sw2.elapsed,
        session_stats=session.stats.to_dict(),
    )


def _table1_task(
    payload: "tuple[Circuit, int | None, str | None]",
) -> Table1Row:
    """Top-level worker (must be picklable for the process pool)."""
    circuit, max_accepted, store = payload
    return run_table1_row(circuit, max_accepted=max_accepted, store=store)


def _run_checkpointed_rows(
    circuits: "list[Circuit]",
    task,
    payload_of,
    row_type,
    kind: str,
    jobs: int,
    checkpoint,
    resume: bool,
    task_timeout: "float | None",
    max_retries: int,
    runner: "TaskRunner | None",
) -> list:
    """Shared supervised/checkpointed driver for the table-row runners.

    Rows come back in ``circuits`` order, one entry per circuit: a
    ``row_type`` instance, or a :class:`RowFailure` if the task failed
    even after retry and in-process degradation.  With ``resume=True``
    circuits whose rows are already in the checkpoint are not recomputed
    (rows are keyed by circuit name, so names must be unique).
    """
    circuits = list(circuits)
    ckpt: "Checkpoint | None" = as_checkpoint(checkpoint, kind)
    done: dict = {}
    if ckpt is not None and resume:
        done = {
            name: row_type.from_dict(data)
            for name, data in ckpt.load().items()
        }
    todo = [circuit for circuit in circuits if circuit.name not in done]
    results = dict(done)

    def on_result(index: int, result) -> None:
        if ckpt is not None and isinstance(result, row_type):
            ckpt.record(result.name, result.to_dict())

    supervisor = _make_runner(runner, jobs, max_retries)
    pooled = supervisor.jobs > 1 and len(todo) > 1
    fresh = supervisor.map(
        task,
        [payload_of(circuit) for circuit in todo],
        labels=[circuit.name for circuit in todo],
        budgets=_circuit_budgets(todo, task_timeout) if pooled else None,
        on_result=on_result,
    )
    for circuit, result in zip(todo, fresh):
        results[circuit.name] = result
    return [results[circuit.name] for circuit in circuits]


def run_table1_rows(
    circuits: Iterable[Circuit],
    max_accepted: int | None = None,
    jobs: int = 1,
    *,
    checkpoint: "str | Checkpoint | None" = None,
    resume: bool = False,
    task_timeout: "float | None" = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    runner: "TaskRunner | None" = None,
    store: "ResultStore | str | None" = None,
) -> "list[Table1Row | RowFailure]":
    """Table-I rows for several circuits, optionally in parallel.

    ``jobs=1`` runs in-process; ``jobs > 1`` fans circuits out across a
    supervised process pool (see :mod:`repro.experiments.supervisor`).
    Row order always follows ``circuits``, and all RD-percentage columns
    are bit-identical across job counts, faults and resumes.

    ``checkpoint`` (a path or :class:`Checkpoint`) streams each
    completed row to JSONL; ``resume=True`` skips circuits already
    recorded there.  ``task_timeout`` is a flat per-task wall-clock
    budget overriding the path-count-derived default; ``runner`` lets a
    caller supply a preconfigured :class:`TaskRunner` (e.g. with a fault
    hook — then ``jobs``/``max_retries`` here are ignored).  ``store``
    (a path or :class:`~repro.store.db.ResultStore`) warm-starts rows
    from the persistent result cache; it composes with every other
    option — checkpoints record finished *rows*, the store caches the
    *passes* inside a row, so a resumed run recomputes nothing at all.
    """
    spec = _store_spec(store)
    return _run_checkpointed_rows(
        list(circuits),
        _table1_task,
        lambda circuit: (circuit, max_accepted, spec),
        Table1Row,
        "table1",
        jobs,
        checkpoint,
        resume,
        task_timeout,
        max_retries,
        runner,
    )


@dataclass
class Table3Row:
    """Baseline-of-[1] vs Heuristic 2 on one small multi-level circuit."""

    name: str
    total_logical: int
    baseline_percent: float
    baseline_time: float
    heu2_percent: float
    heu2_time: float
    #: cache counters of the session that produced this row
    session_stats: "dict | None" = field(default=None, compare=False)

    @property
    def quality_gap(self) -> float:
        """Baseline RD%% minus Heu2 RD%% (the paper reports 2.05%% mean)."""
        return self.baseline_percent - self.heu2_percent

    @property
    def speedup(self) -> float:
        """Baseline time / Heu2 time (the paper's headline is >10-1000x)."""
        if self.heu2_time <= 0:
            return float("inf")
        return self.baseline_time / self.heu2_time

    def to_dict(self) -> dict:
        """JSON-safe form for checkpointing (floats round-trip exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Table3Row":
        return cls(**data)


def run_table3_row(
    circuit: Circuit,
    baseline_method: str = "greedy",
    session: CircuitSession | None = None,
    store: "ResultStore | str | None" = None,
) -> Table3Row:
    if session is None:
        session = CircuitSession(circuit, store=store)
    with span("table3.row", circuit=circuit.name):
        baseline: BaselineResult = baseline_rd(circuit, method=baseline_method)
        with Stopwatch() as sw:
            analysis = heuristic2_analysis(circuit, session=session)
            res2 = session.classify(Criterion.SIGMA_PI, sort=analysis.sort)
    return Table3Row(
        name=circuit.name,
        total_logical=baseline.total_logical,
        baseline_percent=baseline.rd_percent,
        baseline_time=baseline.elapsed,
        heu2_percent=res2.rd_percent,
        heu2_time=sw.elapsed,
        session_stats=session.stats.to_dict(),
    )


def _table3_task(payload: "tuple[Circuit, str, str | None]") -> Table3Row:
    circuit, baseline_method, store = payload
    return run_table3_row(circuit, baseline_method=baseline_method, store=store)


def run_table3_rows(
    circuits: Iterable[Circuit],
    baseline_method: str = "greedy",
    jobs: int = 1,
    *,
    checkpoint: "str | Checkpoint | None" = None,
    resume: bool = False,
    task_timeout: "float | None" = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    runner: "TaskRunner | None" = None,
    store: "ResultStore | str | None" = None,
) -> "list[Table3Row | RowFailure]":
    """Table-III rows for several circuits, optionally in parallel.

    Supervision, checkpointing, resume and the persistent ``store`` work
    exactly as in :func:`run_table1_rows` (checkpoint kind ``table3``;
    the store accelerates the Heu2 passes, never the exact baseline).
    """
    spec = _store_spec(store)
    return _run_checkpointed_rows(
        list(circuits),
        _table3_task,
        lambda circuit: (circuit, baseline_method, spec),
        Table3Row,
        "table3",
        jobs,
        checkpoint,
        resume,
        task_timeout,
        max_retries,
        runner,
    )


def _cone_task(
    payload: "tuple[Circuit, int, Criterion, Callable[[Circuit], InputSort] | None]",
) -> ClassificationResult:
    circuit, po, criterion, sort_builder = payload
    cone, _mapping = circuit.extract_cone(po)
    session = CircuitSession(cone)
    sort = sort_builder(cone) if sort_builder is not None else None
    return session.classify(criterion, sort=sort)


def classify_cones(
    circuit: Circuit,
    criterion: Criterion,
    sort_builder: "Callable[[Circuit], InputSort] | None" = None,
    jobs: int = 1,
    runner: "TaskRunner | None" = None,
) -> ClassificationResult:
    """Classify per extracted PO cone and combine (the paper applies its
    single-output theory cone by cone; every PI→PO path lies in exactly
    one cone, so the accepted counts add up).

    ``sort_builder`` builds the per-cone sort for ``SIGMA_PI`` (e.g.
    :func:`~repro.sorting.heuristics.heuristic1_sort`); for ``jobs > 1``
    it must be picklable (a module-level function, not a lambda).
    ``elapsed`` sums per-cone CPU time — the paper's accounting — not
    pool wall-clock.  Cone tasks run supervised (crashed workers are
    retried, then degraded in-process), but because a combined result
    needs *every* cone, a cone that still fails raises
    :class:`~repro.errors.HarnessError` instead of degrading to a
    partial sum.
    """
    work = [(circuit, po, criterion, sort_builder) for po in circuit.outputs]
    parts = _make_runner(runner, jobs, DEFAULT_MAX_RETRIES).map(
        _cone_task,
        work,
        labels=[f"{circuit.name}/cone[{po}]" for po in circuit.outputs],
    )
    failures = [part for part in parts if isinstance(part, RowFailure)]
    if failures:
        raise HarnessError(
            "cone classification failed: "
            + "; ".join(str(failure) for failure in failures)
        )
    return ClassificationResult(
        circuit_name=circuit.name,
        criterion=criterion,
        total_logical=sum(p.total_logical for p in parts),
        accepted=sum(p.accepted for p in parts),
        elapsed=sum(p.elapsed for p in parts),
        edges_visited=sum(p.edges_visited for p in parts),
    )


def sigma_pi_percent(
    circuit: Circuit,
    sort: InputSort,
    session: CircuitSession | None = None,
) -> float:
    """RD%% of one SIGMA_PI pass (ablation helper)."""
    if session is None:
        session = CircuitSession(circuit)
    return session.classify(Criterion.SIGMA_PI, sort=sort).rd_percent
