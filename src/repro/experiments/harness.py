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
:class:`~repro.experiments.supervisor.TaskRunner` passed as ``runner=``:
``TaskRunner(jobs=N)`` runs one session per worker process, and the
default ``TaskRunner()`` is the deterministic in-process fallback.
Task payloads stay tiny because circuits pickle as their bare netlist
dict (name/types/names/fanin — a few KB): workers rebuild the flat IR,
literal closures and session caches locally on first use, and lead
numbering/fingerprints come out identical on both sides by
construction, so store keys written by a worker hit from the parent.
Results are identical either way — only wall-clock changes — because
every pass is deterministic and the runner preserves input order.  The
supervisor adds per-task wall-clock budgets derived from each circuit's
exact path count (or the runner's flat ``task_timeout``), bounded retry
with pool respawn on worker crashes, and in-process degradation: a row
is recorded as a structured
:class:`~repro.experiments.supervisor.RowFailure` only after retries
*and* the in-process rerun failed, so one bad circuit never aborts a
table run.

Completed rows can be streamed to a JSONL checkpoint (``checkpoint=``)
and skipped on a rerun (``resume=True``) — the final tables are
byte-identical whether a run went straight through, was resumed after a
kill, or degraded around faults.

Passing ``store=`` (a path or :class:`~repro.store.db.ResultStore`)
warm-starts every row from the persistent content-addressed cache: the
store travels in each task payload and pickles as its path, so each
worker opens its own connection to the shared SQLite file (WAL mode
makes concurrent pool access safe), completed passes are written back,
and a repeated or resumed table run serves its classification passes and
path counts in O(1).  Rows record their session's cache counters in
``session_stats`` so callers can verify warm runs did no recounting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable

from repro.baseline.exact_assignment import BaselineResult, baseline_rd
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.obs import span
from repro.experiments.supervisor import (
    Checkpoint,
    RowFailure,
    TaskRunner,
    as_checkpoint,
    resumable_map,
)
from repro.sorting.heuristics import heuristic2_analysis
from repro.sorting.input_sort import InputSort
from repro.store.db import ResultStore, as_store
from repro.util.timer import Stopwatch


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
    payload: "tuple[Circuit, int | None, ResultStore | None]",
) -> Table1Row:
    """Top-level worker (must be picklable for the process pool)."""
    circuit, max_accepted, store = payload
    return run_table1_row(circuit, max_accepted=max_accepted, store=store)


def run_table1_rows(
    circuits: Iterable[Circuit],
    max_accepted: int | None = None,
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | Checkpoint | None" = None,
    resume: bool = False,
    store: "ResultStore | str | None" = None,
) -> "list[Table1Row | RowFailure]":
    """Table-I rows for several circuits, optionally in parallel.

    ``runner`` (default: an in-process ``TaskRunner()``) carries the
    supervision policy: ``TaskRunner(jobs=N)`` fans circuits out across a
    supervised process pool (see :mod:`repro.experiments.supervisor`),
    its ``task_timeout`` replaces the path-count-derived per-task
    budgets, and its ``max_retries``/``fault_hook`` apply per task.  Row
    order always follows ``circuits``, and all RD-percentage columns are
    bit-identical across job counts, faults and resumes.

    ``checkpoint`` (a path or :class:`Checkpoint`) streams each
    completed row to JSONL; ``resume=True`` skips circuits already
    recorded there (rows are keyed by circuit name, so names must be
    unique).  ``store`` (a path or
    :class:`~repro.store.db.ResultStore`) warm-starts rows from the
    persistent result cache; it composes with every other option —
    checkpoints record finished *rows*, the store caches the *passes*
    inside a row, so a resumed run recomputes nothing at all.
    """
    store = as_store(store)
    return resumable_map(
        runner,
        _table1_task,
        circuits,
        lambda circuit: (
            (circuit, max_accepted, store), circuit.name, circuit
        ),
        Table1Row,
        as_checkpoint(checkpoint, "table1"),
        resume,
        key=lambda circuit: circuit.name,
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


def _table3_task(
    payload: "tuple[Circuit, str, ResultStore | None]",
) -> Table3Row:
    circuit, baseline_method, store = payload
    return run_table3_row(circuit, baseline_method=baseline_method, store=store)


def run_table3_rows(
    circuits: Iterable[Circuit],
    baseline_method: str = "greedy",
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | Checkpoint | None" = None,
    resume: bool = False,
    store: "ResultStore | str | None" = None,
) -> "list[Table3Row | RowFailure]":
    """Table-III rows for several circuits, optionally in parallel.

    ``runner``, checkpointing, resume and the persistent ``store`` work
    exactly as in :func:`run_table1_rows` (checkpoint kind ``table3``;
    the store accelerates the Heu2 passes, never the exact baseline).
    """
    store = as_store(store)
    return resumable_map(
        runner,
        _table3_task,
        circuits,
        lambda circuit: (
            (circuit, baseline_method, store), circuit.name, circuit
        ),
        Table3Row,
        as_checkpoint(checkpoint, "table3"),
        resume,
        key=lambda circuit: circuit.name,
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
