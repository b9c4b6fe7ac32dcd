"""Table III — quality/time of the baseline of [1] vs Heuristic 2.

The baseline optimises over all complete stabilizing assignments (the
exact objective of [1], see :mod:`repro.baseline`); Heuristic 2 is the
paper's fast approximation.  The paper reports a mean quality gap of
2.05% and speedups of one to three orders of magnitude.

Runs are supervised: a circuit whose task failed even after retry and
in-process degradation renders as a ``FAILED`` row instead of aborting
the table, and ``checkpoint``/``resume`` make long runs restartable
(see :mod:`repro.experiments.supervisor`).
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.netlist import Circuit
from repro.classify.session import format_session_stats
from repro.experiments.harness import Table3Row, run_table3_rows
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.gen.suite import table3_suite
from repro.util.tables import TextTable
from repro.util.timer import format_duration


def run(
    circuits: Iterable[Circuit] | None = None,
    baseline_method: str = "greedy",
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    store: "str | None" = None,
) -> "tuple[TextTable, list[Table3Row | RowFailure]]":
    rows = run_table3_rows(
        circuits if circuits is not None else table3_suite(),
        baseline_method=baseline_method,
        runner=runner,
        checkpoint=checkpoint,
        resume=resume,
        store=store,
    )
    table = TextTable(
        [
            "circuit",
            "logical paths",
            "baseline RD%",
            "baseline time",
            "Heu2 RD%",
            "Heu2 time",
            "gap",
            "speedup",
        ],
        title="Table III: approach of [1] vs Heuristic 2 (MCNC-like stand-ins)",
    )
    for row in rows:
        if isinstance(row, RowFailure):
            table.add_row([row.label] + ["FAILED"] * 7)
            continue
        table.add_row(
            [
                row.name,
                f"{row.total_logical:,}",
                f"{row.baseline_percent:.2f} %",
                format_duration(row.baseline_time),
                f"{row.heu2_percent:.2f} %",
                format_duration(row.heu2_time),
                f"{row.quality_gap:+.2f} %",
                f"{row.speedup:.1f}x",
            ]
        )
    return table, rows


def main(
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    store: "str | None" = None,
    verbose: bool = False,
) -> None:
    table, rows = run(
        runner=runner, checkpoint=checkpoint, resume=resume, store=store
    )
    print(table.render())
    if verbose:
        for row in rows:
            if isinstance(row, Table3Row) and row.session_stats is not None:
                print(f"   {row.name}: {format_session_stats(row.session_stats)}")
    failures = [row for row in rows if isinstance(row, RowFailure)]
    for failure in failures:
        print(f"!! {failure}")
    gaps = [row.quality_gap for row in rows if isinstance(row, Table3Row)]
    if gaps:
        print(f"mean quality gap: {sum(gaps) / len(gaps):.2f} % (paper: 2.05 %)")


if __name__ == "__main__":
    main()
