"""Table II — total logical path counts and running times of Heu1/Heu2.

Includes the "could not be completed" rows of the paper (c6288 role):
circuits whose exact path count is computed (big integers, no
enumeration) but whose classification is beyond the enumeration budget.

Runs are supervised like Table I: failed circuits render as ``FAILED``
rows, and ``checkpoint``/``resume`` make long runs restartable.
"""

from __future__ import annotations

from typing import Iterable

from repro.circuit.netlist import Circuit
from repro.experiments.harness import Table1Row, run_table1_rows
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.gen.suite import count_only_suite, table1_suite
from repro.paths.count import count_paths
from repro.util.tables import TextTable
from repro.util.timer import format_duration


def run(
    circuits: Iterable[Circuit] | None = None,
    rows: "list[Table1Row | RowFailure] | None" = None,
    include_count_only: bool = True,
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    store: "str | None" = None,
) -> TextTable:
    """Render Table II; pass ``rows`` to reuse Table I measurements."""
    if rows is None:
        rows = run_table1_rows(
            circuits if circuits is not None else table1_suite(),
            runner=runner,
            checkpoint=checkpoint,
            resume=resume,
            store=store,
        )
    table = TextTable(
        ["circuit", "total logical paths", "CPU-time Heu1", "CPU-time Heu2"],
        title="Table II: path counts and running times",
    )
    for row in rows:
        if isinstance(row, RowFailure):
            table.add_row([row.label, "FAILED", "FAILED", "FAILED"])
            continue
        table.add_row(
            [
                row.name,
                f"{row.total_logical:,}",
                format_duration(row.time_heu1),
                format_duration(row.time_heu2),
            ]
        )
    if include_count_only:
        for circuit in count_only_suite():
            total = count_paths(circuit).total_logical
            table.add_row(
                [
                    circuit.name,
                    f"{total:.3e}" if total > 10**9 else f"{total:,}",
                    "(count only)",
                    "(count only)",
                ]
            )
    return table


def main(
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | None" = None,
    resume: bool = False,
    store: "str | None" = None,
) -> None:
    print(
        run(
            runner=runner, checkpoint=checkpoint, resume=resume, store=store
        ).render()
    )


if __name__ == "__main__":
    main()
