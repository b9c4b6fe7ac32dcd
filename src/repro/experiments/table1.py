"""Table I — percentage of logical paths identified robust dependent.

Columns, as in the paper: FUS (functionally unsensitizable, [2]),
Heu1, Heu2 (the new approach with both sorting heuristics), and
Heu2-bar (the inverted input sort, the paper's control experiment).

Runs are supervised: a circuit whose task failed even after retry and
in-process degradation renders as a ``FAILED`` row instead of aborting
the table, and ``checkpoint``/``resume`` make long runs restartable
(see :mod:`repro.experiments.supervisor`).
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.netlist import Circuit
from repro.classify.session import format_session_stats
from repro.experiments.harness import Table1Row, run_table1_rows
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.gen.suite import table1_suite
from repro.util.tables import TextTable


def run(
    circuits: Iterable[Circuit] | None = None,
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    store: "str | None" = None,
) -> "tuple[TextTable, list[Table1Row | RowFailure]]":
    rows = run_table1_rows(
        circuits if circuits is not None else table1_suite(),
        runner=runner,
        checkpoint=checkpoint,
        resume=resume,
        store=store,
    )
    table = TextTable(
        ["circuit", "FUS", "Heu1", "Heu2", "inv-Heu2"],
        title="Table I: % of logical paths identified RD (ISCAS-85 stand-ins)",
    )
    for row in rows:
        if isinstance(row, RowFailure):
            table.add_row([row.label, "FAILED", "FAILED", "FAILED", "FAILED"])
            continue
        table.add_row(
            [
                row.name,
                f"{row.fus_percent:.2f} %",
                f"{row.heu1_percent:.2f} %",
                f"{row.heu2_percent:.2f} %",
                f"{row.heu2_inverse_percent:.2f} %",
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
            if isinstance(row, Table1Row) and row.session_stats is not None:
                print(f"   {row.name}: {format_session_stats(row.session_stats)}")
    for row in rows:
        if isinstance(row, RowFailure):
            print(f"!! {row}")
            continue
        for problem in row.check_expected_shape():
            print(f"!! {row.name}: {problem}")


if __name__ == "__main__":
    main()
