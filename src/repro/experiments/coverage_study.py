"""Fault-coverage study: does a better input sort buy coverage?

Section III argues that minimising ``|LP(σ)|`` *maximises the fault
coverage*, defined as (robustly testable selected paths) / ``|LP(σ)|``
— the untestable selected paths are the DFT liabilities.  This module
estimates that coverage for a given sort by sampling the selected set
and SAT-checking robust testability per sample, and compares sorts —
one task per sort, fanned out by the caller's
:class:`~repro.experiments.supervisor.TaskRunner` (``runner=``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.delaytest.testability import is_robustly_testable
from repro.experiments.supervisor import TaskRunner
from repro.sorting.input_sort import InputSort


@dataclass(frozen=True)
class CoverageEstimate:
    """Sampled robust fault coverage of one selection."""

    circuit_name: str
    sort_label: str
    selected: int
    sampled: int
    testable: int

    @property
    def coverage(self) -> float:
        if not self.sampled:
            return 1.0
        return self.testable / self.sampled

    def __str__(self) -> str:
        return (
            f"{self.circuit_name}[{self.sort_label}]: |LP^sup| = "
            f"{self.selected}, sampled {self.sampled}, robust coverage "
            f"~{100 * self.coverage:.1f}%"
        )


def estimate_coverage(
    circuit: Circuit,
    sort: InputSort,
    sort_label: str = "sort",
    sample_size: int = 100,
    seed: int = 0,
    max_accepted: "int | None" = 2_000_000,
    session: "CircuitSession | None" = None,
) -> CoverageEstimate:
    """Sampled Theorem-1 fault coverage of ``LP^sup(σ^π)``."""
    if session is None:
        session = CircuitSession(circuit)
    selected: list = []
    result = session.classify(
        Criterion.SIGMA_PI,
        sort=sort,
        max_accepted=max_accepted,
        on_path=selected.append,
    )
    rng = random.Random(seed)
    if len(selected) <= sample_size:
        sample = selected
    else:
        sample = rng.sample(selected, sample_size)
    testable = sum(
        1 for lp in sample if is_robustly_testable(circuit, lp)
    )
    return CoverageEstimate(
        circuit_name=circuit.name,
        sort_label=sort_label,
        selected=result.accepted,
        sampled=len(sample),
        testable=testable,
    )


def _coverage_task(
    payload: "tuple[Circuit, InputSort, str, int, int]",
) -> CoverageEstimate:
    """Top-level worker (picklable) for the sort-comparison pool."""
    circuit, sort, label, sample_size, seed = payload
    return estimate_coverage(
        circuit, sort, sort_label=label, sample_size=sample_size, seed=seed
    )


def compare_sorts(
    circuit: Circuit,
    sorts: "dict[str, InputSort]",
    sample_size: int = 100,
    seed: int = 0,
    *,
    runner: "TaskRunner | None" = None,
) -> "dict[str, CoverageEstimate]":
    """Coverage estimates for several sorts on one circuit.

    With ``runner=TaskRunner(jobs=N)`` the per-sort estimates (one
    classification pass + SAT testability sampling each) fan out across
    the supervised :class:`~repro.experiments.supervisor.TaskRunner` —
    crashed workers are retried then degraded in-process, and each
    worker's telemetry is merged back into this process's registry.
    The seeded sampling makes results identical across job counts.  A
    sort whose task fails even after degradation maps to a
    :class:`~repro.experiments.supervisor.RowFailure` instead of an
    estimate.
    """
    labels = list(sorts)
    work = [
        (circuit, sorts[label], label, sample_size, seed) for label in labels
    ]
    if runner is None:
        runner = TaskRunner()
    # One shared session would be wasted across processes; per-call
    # sessions still dedupe the counts/tables within each estimate.
    estimates = runner.map(
        _coverage_task,
        work,
        labels=[f"{circuit.name}/{label}" for label in labels],
    )
    return dict(zip(labels, estimates))
