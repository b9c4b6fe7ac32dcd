"""Exact-vs-approximate tightness tables (the Lemma-2 gap, measured).

Algorithm 2's word-parallel classifier computes a *superset*
``LP^sup(σ^π)`` of the true criterion set by local implications; this
module measures how loose that approximation is on real circuits.  For
one circuit:

1. the classifier streams its accepted paths (``on_path`` — exactly
   the superset; every rejected path is *provably* outside the set, so
   only accepted paths need a SAT query);
2. the :class:`repro.verdict.VerdictOracle` decides true membership of
   each accepted path, replaying every SAT witness through simulation;
3. the row reports approximate vs. exact RD% — the gap is the number
   of classifier-accepted paths the SAT oracle refuted.

Rows are store-cached under the ``rdfp1:`` fingerprint (kind
``"tightness"``) with the never-wrong contract: any malformed or
inconsistent payload is a miss and recomputed.  The SAT queries fan
out through the caller's ``runner`` (``--jobs`` on the CLI) in path
chunks; the deterministic table fields
(path counts, RD percentages, replay counts) are chunking-independent,
so :meth:`TightnessReport.table_bytes` is byte-identical at any job
count — solver-work diagnostics (conflicts/decisions/reuse), which do
depend on query order, live only in :meth:`TightnessRow.to_dict`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError, VerdictError
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.obs import get_registry, span
from repro.paths.path import LogicalPath, PhysicalPath
from repro.util.serialize import to_json
from repro.util.tables import TextTable
from repro.verdict.oracle import VerdictOracle

if TYPE_CHECKING:
    from repro.sorting.input_sort import InputSort

#: Store schema for cached tightness rows (bumped on layout changes).
TIGHTNESS_SCHEMA = 1

#: Default PI ceiling for the *suite sweep* only — it keeps the default
#: ``repro-rd tightness`` run aligned with the circuits whose verdicts
#: can be differential-checked against ``exact.exists_vector``.  The
#: oracle itself has no input-count limit.
DEFAULT_MAX_INPUTS = 20

#: Default cap on classifier-accepted paths per circuit — bounds the
#: number of SAT queries a sweep row may issue; circuits over the cap
#: get a structured SKIP row instead of an open-ended run.
DEFAULT_MAX_ACCEPTED = 50_000

#: Paths per fan-out chunk (each chunk's oracle starts from the
#: circuit's cached one-frame template, then decides its chunk
#: incrementally).
CHUNK_SIZE = 512


@dataclass(frozen=True)
class TightnessRow:
    """One circuit's exact-vs-approximate verdict counts."""

    circuit: str
    criterion: str
    sort_label: str
    total_logical: int
    approx_accepted: int
    exact_accepted: int
    witness_replays: int
    conflicts: int = 0
    decisions: int = 0
    learned_reuse: int = 0
    elapsed: float = 0.0
    source: str = "computed"  #: "store" | "computed" | "skipped"
    skipped: str = ""  #: non-empty = reason this circuit was not decided

    @property
    def refuted(self) -> int:
        """Classifier-accepted paths the SAT oracle refuted (the gap)."""
        return self.approx_accepted - self.exact_accepted

    @property
    def approx_rd_percent(self) -> float:
        if self.total_logical == 0:
            return 0.0
        return 100.0 * (self.total_logical - self.approx_accepted) / self.total_logical

    @property
    def exact_rd_percent(self) -> float:
        if self.total_logical == 0:
            return 0.0
        return 100.0 * (self.total_logical - self.exact_accepted) / self.total_logical

    @property
    def gap_percent(self) -> float:
        """Exact minus approximate RD% — how much the paper's Algorithm 2
        under-reports (always >= 0 by soundness of the superset)."""
        return self.exact_rd_percent - self.approx_rd_percent

    def table_row(self) -> dict:
        """Deterministic fields only: byte-identical cold/warm and at
        any ``--jobs`` count (solver work and timing excluded)."""
        return {
            "circuit": self.circuit,
            "criterion": self.criterion,
            "sort": self.sort_label,
            "total_logical": self.total_logical,
            "approx_accepted": self.approx_accepted,
            "exact_accepted": self.exact_accepted,
            "refuted": self.refuted,
            "approx_rd_percent": self.approx_rd_percent,
            "exact_rd_percent": self.exact_rd_percent,
            "gap_percent": self.gap_percent,
            "witness_replays": self.witness_replays,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TightnessRow":
        """The row :meth:`to_dict` wrote (a ``tightness`` wire answer
        included); derived and unknown keys are ignored."""
        names = {f.name for f in fields(cls)} - {"sort_label"}
        return cls(
            sort_label=payload["sort"],
            **{name: payload[name] for name in names},
        )

    def to_dict(self) -> dict:
        row = self.table_row()
        row["conflicts"] = self.conflicts
        row["decisions"] = self.decisions
        row["learned_reuse"] = self.learned_reuse
        row["elapsed"] = self.elapsed
        row["source"] = self.source
        return row


@dataclass(frozen=True)
class TightnessReport:
    """A tightness sweep over several circuits."""

    criterion: Criterion
    sort_label: str
    rows: "tuple[TightnessRow, ...]"
    wall_seconds: float = 0.0

    @property
    def decided_rows(self) -> "tuple[TightnessRow, ...]":
        return tuple(row for row in self.rows if not row.skipped)

    @property
    def total_refuted(self) -> int:
        return sum(row.refuted for row in self.decided_rows)

    @property
    def total_queries(self) -> int:
        return sum(row.approx_accepted for row in self.decided_rows)

    def table_payload(self) -> dict:
        """The deterministic table (see :meth:`TightnessRow.table_row`)."""
        return {
            "schema": TIGHTNESS_SCHEMA,
            "criterion": self.criterion.name,
            "sort": self.sort_label,
            "rows": [row.table_row() for row in self.rows],
            "circuits": len(self.rows),
            "decided": len(self.decided_rows),
            "refuted": self.total_refuted,
            "sat_queries": self.total_queries,
        }

    def table_bytes(self) -> bytes:
        return to_json(self.table_payload()).encode()

    def to_dict(self) -> dict:
        payload = self.table_payload()
        payload["rows"] = [row.to_dict() for row in self.rows]
        payload["wall_seconds"] = self.wall_seconds
        return payload

    def render(self) -> str:
        table = TextTable(
            [
                "circuit",
                "|LP|",
                "approx acc",
                "exact acc",
                "refuted",
                "approx RD%",
                "exact RD%",
                "gap",
                "note",
            ],
            title=(
                f"Lemma-2 tightness — exact vs. approximate RD% "
                f"({self.criterion.name}, sort={self.sort_label})"
            ),
        )
        for row in self.rows:
            if row.skipped:
                table.add_row(
                    [row.circuit, row.total_logical or "-", "-", "-", "-",
                     "-", "-", "-", f"SKIP: {row.skipped}"]
                )
            else:
                table.add_row(
                    [
                        row.circuit,
                        row.total_logical,
                        row.approx_accepted,
                        row.exact_accepted,
                        row.refuted,
                        f"{row.approx_rd_percent:.2f}",
                        f"{row.exact_rd_percent:.2f}",
                        f"{row.gap_percent:+.2f}",
                        row.source,
                    ]
                )
        return table.render()


# -- sort resolution ----------------------------------------------------
def resolve_sort(
    session: CircuitSession,
    criterion: Criterion,
    sort: "InputSort | str | None",
    max_accepted: "int | None" = None,
) -> "tuple[InputSort | None, str]":
    """``(sort object, label)`` from a symbolic name or explicit sort.

    FS/NR impose no π-order, so their queries always run sort-free.
    ``max_accepted`` also bounds the passes that derive a Heuristic-2
    sort (:meth:`CircuitSession.sort`).
    """
    from repro.sorting.input_sort import InputSort

    label = _sort_label(criterion, sort)
    if criterion is not Criterion.SIGMA_PI:
        return None, label
    if isinstance(sort, InputSort):
        return sort, label
    return session.sort(label, max_accepted), label


def _sort_label(criterion: Criterion, sort: "InputSort | str | None") -> str:
    """``none`` without a π-order, ``custom`` for an explicit sort, else
    the sort's name (``heu2`` by default)."""
    if criterion is not Criterion.SIGMA_PI:
        return "none"
    if sort is None or isinstance(sort, str):
        return sort or "heu2"
    return "custom"


# -- the per-chunk worker task (module-level: picklable) ----------------
def _verdict_chunk_task(payload):
    """Decide one chunk of paths; returns aggregate counts only (sums
    are order- and chunking-independent, keeping tables deterministic).
    """
    circuit, criterion_name, ranks, raw_paths = payload
    from repro.sorting.input_sort import InputSort

    criterion = Criterion[criterion_name]
    sort = None if ranks is None else InputSort(circuit, ranks)
    oracle = VerdictOracle(circuit)
    sat = 0
    for leads, final_value in raw_paths:
        lp = LogicalPath(PhysicalPath(tuple(leads)), final_value)
        if oracle.decide(lp, criterion, sort).in_set:
            sat += 1
    stats = oracle.solver.stats
    return (sat, oracle.replays, stats.conflicts, stats.decisions,
            stats.learned_reuse)


# -- store plumbing -----------------------------------------------------
def _load_tightness_payload(payload: dict, max_accepted: "int | None"):
    """Strict never-wrong validation; anything off is a miss."""
    if payload.get("schema") != TIGHTNESS_SCHEMA:
        return None
    fields = ("total_logical", "approx_accepted", "exact_accepted", "replays")
    values = [payload.get(name) for name in fields]
    if not all(isinstance(v, int) and v >= 0 for v in values):
        return None
    total, approx, exact, replays = values
    if not exact <= approx <= total:
        return None
    if replays != exact:
        return None
    if max_accepted is not None and approx > max_accepted:
        # The cached row would have aborted under this caller's budget;
        # recompute so the budget semantics hold.
        return None
    return (total, approx, exact, replays)


# -- entry points -------------------------------------------------------
def tightness_row(
    circuit: Circuit,
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "InputSort | str | None" = "heu2",
    *,
    session: "CircuitSession | None" = None,
    store=None,
    runner: "TaskRunner | None" = None,
    max_accepted: "int | None" = None,
) -> TightnessRow:
    """Exact-vs-approximate verdict counts for one circuit.

    Raises :class:`ClassifyError` when any classifier pass of the row —
    a Heuristic-2 sort's FS/NR passes included — accepts more than
    ``max_accepted`` paths (the sweep turns that into a SKIP row) and
    :class:`VerdictError` on any certificate failure.  ``circuit`` may
    be anything :func:`repro.loading.as_core` resolves (a
    ``ScanCircuit`` or ``.bench`` path included).
    """
    start = time.perf_counter()
    if not isinstance(circuit, Circuit):
        from repro.loading import as_core

        circuit = as_core(circuit)
    if session is None:
        session = CircuitSession(circuit, store=store)
    if runner is None:
        runner = TaskRunner()
    sort_obj, sort_label = resolve_sort(session, criterion, sort, max_accepted)
    # the classify row's key string: stores written before keep hitting
    variant = session._classify_variant(criterion, sort_obj)  # noqa: SLF001

    def make_row(total, approx, exact, replays, counters, source):
        conflicts, decisions, reuse = counters
        return TightnessRow(
            circuit=circuit.name,
            criterion=criterion.name,
            sort_label=sort_label,
            total_logical=total,
            approx_accepted=approx,
            exact_accepted=exact,
            witness_replays=replays,
            conflicts=conflicts,
            decisions=decisions,
            learned_reuse=reuse,
            elapsed=time.perf_counter() - start,
            source=source,
        )

    cached = session._store_get(  # noqa: SLF001 - session store plumbing
        "tightness",
        variant,
        lambda payload: _load_tightness_payload(payload, max_accepted),
    )
    if cached is not None:
        get_registry().counter("verdict.row_store_hits").inc()
        return make_row(*cached, (0, 0, 0), "store")

    with span("verdict.tightness", circuit=circuit.name,
              criterion=criterion.name):
        accepted: "list[tuple[tuple[int, ...], int]]" = []
        result = session.classify(
            criterion,
            sort=sort_obj,
            max_accepted=max_accepted,
            on_path=lambda lp: accepted.append(
                (lp.path.leads, lp.final_value)
            ),
        )
        total = result.total_logical
        approx = result.accepted
        chunks = [
            accepted[i : i + CHUNK_SIZE]
            for i in range(0, len(accepted), CHUNK_SIZE)
        ] or []
        payloads = [
            (circuit, criterion.name,
             None if sort_obj is None else sort_obj.ranks,
             chunk)
            for chunk in chunks
        ]
        labels = [f"{circuit.name}:verdicts[{i}]" for i in range(len(payloads))]
        outcomes = runner.map(_verdict_chunk_task, payloads, labels=labels)
        exact = replays = conflicts = decisions = reuse = 0
        for outcome in outcomes:
            if isinstance(outcome, RowFailure):
                raise VerdictError(
                    f"verdict chunk {outcome.label} failed "
                    f"({outcome.kind}): {outcome.message}"
                )
            sat, rep, conf, dec, ruse = outcome
            exact += sat
            replays += rep
            conflicts += conf
            decisions += dec
            reuse += ruse

    session._store_put(  # noqa: SLF001 - session store plumbing
        "tightness",
        variant,
        {
            "schema": TIGHTNESS_SCHEMA,
            "total_logical": total,
            "approx_accepted": approx,
            "exact_accepted": exact,
            "replays": replays,
        },
    )
    return make_row(total, approx, exact, replays,
                    (conflicts, decisions, reuse), "computed")


def default_suite_circuits(max_inputs: int = DEFAULT_MAX_INPUTS) -> list[str]:
    """Suite circuit names eligible for the default tightness sweep
    (at most ``max_inputs`` PIs, so verdicts stay cross-checkable
    against ``exact.exists_vector``)."""
    from repro.gen.suite import SUITE, get_circuit

    names = []
    for name in sorted(SUITE):
        if len(get_circuit(name).inputs) <= max_inputs:
            names.append(name)
    return names


def run_tightness(
    circuits: "Iterable[Circuit] | None" = None,
    criterion: Criterion = Criterion.SIGMA_PI,
    sort: "InputSort | str | None" = "heu2",
    *,
    store=None,
    runner: "TaskRunner | None" = None,
    max_inputs: int = DEFAULT_MAX_INPUTS,
    max_accepted: "int | None" = DEFAULT_MAX_ACCEPTED,
) -> TightnessReport:
    """Tightness sweep: one row per circuit, SKIP rows for circuits over
    the PI ceiling or the accepted-paths budget (never a silent drop).
    """
    from repro.gen.suite import get_circuit

    if circuits is None:
        circuits = [get_circuit(name) for name in default_suite_circuits(max_inputs)]
    else:
        from repro.loading import as_core

        circuits = [
            c if isinstance(c, Circuit) else as_core(c) for c in circuits
        ]
    return _sweep(
        circuits, criterion, sort, max_inputs, max_accepted,
        lambda circuit: tightness_row(
            circuit, criterion, sort, store=store, runner=runner,
            max_accepted=max_accepted,
        ),
    )


def _sweep(
    circuits: "Iterable[Circuit]",
    criterion: Criterion,
    sort: "InputSort | str | None",
    max_inputs: int,
    max_accepted: "int | None",
    decide: "Callable[[Circuit], TightnessRow]",
) -> TightnessReport:
    """The sweep loop of :func:`run_tightness` and ``repro-rd tightness
    --remote``: a SKIP row for a circuit over the PI ceiling or whose
    ``decide`` raises :class:`ClassifyError`, else ``decide``'s row."""
    start = time.perf_counter()

    def skip(circuit: Circuit, reason: str) -> TightnessRow:
        return TightnessRow(
            circuit.name, criterion.name, "-", 0, 0, 0, 0,
            source="skipped", skipped=reason,
        )

    rows = []
    for circuit in circuits:
        n_inputs = len(circuit.inputs)
        if n_inputs > max_inputs:
            rows.append(
                skip(circuit, f"{n_inputs} PIs > --max-inputs {max_inputs}")
            )
            continue
        try:
            rows.append(decide(circuit))
        except ClassifyError:
            rows.append(skip(
                circuit,
                f"classifier accepted > {max_accepted} paths "
                f"(--max-accepted budget)",
            ))
    return TightnessReport(
        criterion=criterion,
        sort_label=_sort_label(criterion, sort),
        rows=tuple(rows),
        wall_seconds=time.perf_counter() - start,
    )
