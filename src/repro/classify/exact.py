"""Exact (exponential) reference implementations of the criteria.

Used to validate the fast approximate classifier on small circuits:

* :func:`satisfies_criterion` — do the criterion's conditions hold for a
  given logical path under a given, fully specified input vector?
  (:func:`criterion_holds` is the same check on values already
  simulated.)
* :func:`exists_vector` — brute-force existential over all ``2^n``
  vectors (the exact membership test the paper's Algorithm 2
  approximates).
* :func:`exact_path_set` — the exact criterion set by explicit path
  enumeration.
* :func:`exact_lp_sigma` — ``LP(σ^π)`` computed the *other* way, through
  Algorithm 1 / stabilizing systems, which by Lemma 2 must coincide with
  ``exact_path_set(..., SIGMA_PI, ...)``.
"""

from __future__ import annotations

from repro.errors import ExactLimitError
from repro.circuit.gates import GateType, controlling_value, has_controlling_value
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion, required_side_pins
from repro.logic.simulate import all_vectors, simulate
from repro.paths.enumerate import enumerate_logical_paths
from repro.paths.path import LogicalPath
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.sorting.input_sort import InputSort

_MAX_INPUTS = 20


def satisfies_criterion(
    circuit: Circuit,
    criterion: Criterion,
    logical_path: LogicalPath,
    vector: tuple[int, ...],
    sort: InputSort | None = None,
) -> bool:
    """Check the criterion's conditions for ``logical_path`` under the
    stable values produced by ``vector`` (:func:`criterion_holds` on a
    fresh simulation)."""
    return criterion_holds(
        circuit, criterion, logical_path, simulate(circuit, vector), sort
    )


def criterion_holds(
    circuit: Circuit,
    criterion: Criterion,
    logical_path: LogicalPath,
    values: Sequence[int],
    sort: InputSort | None = None,
) -> bool:
    """Check the criterion's conditions for ``logical_path`` against
    already-simulated gate ``values`` (conditions (FU1)-(FU2),
    (NR1)-(NR2) or (π1)-(π3) literally as written in the paper)."""
    pi = logical_path.path.source(circuit)
    if values[pi] != logical_path.final_value:
        return False  # (FU1)/(NR1)/(π1)
    for lead in logical_path.path.leads:
        dst = circuit.lead_dst(lead)
        gtype = circuit.gate_type(dst)
        if not has_controlling_value(gtype):
            continue
        src = circuit.lead_src(lead)
        c = controlling_value(gtype)
        on_path_is_controlling = values[src] == c
        pins = required_side_pins(
            criterion, circuit, lead, on_path_is_controlling, sort
        )
        fanin = circuit.fanin(dst)
        if any(values[fanin[p]] == c for p in pins):
            return False
    return True


def exists_vector(
    circuit: Circuit,
    criterion: Criterion,
    logical_path: LogicalPath,
    sort: InputSort | None = None,
) -> bool:
    """Exact membership: does *some* input vector satisfy the criterion's
    conditions for this logical path?  Exponential in #PIs."""
    n = len(circuit.inputs)
    if n > _MAX_INPUTS:
        raise ExactLimitError(
            f"brute force over 2^{n} vectors refused "
            f"({n} PIs > {_MAX_INPUTS}); use the SAT-exact mode instead: "
            "repro.verdict.VerdictOracle decides the same membership "
            "question without the input-count ceiling"
        )
    return any(
        satisfies_criterion(circuit, criterion, logical_path, vector, sort)
        for vector in all_vectors(n)
    )


def exact_path_set(
    circuit: Circuit,
    criterion: Criterion,
    sort: InputSort | None = None,
    limit: int = 100_000,
) -> set[LogicalPath]:
    """The exact criterion set (``FS(C)``, ``T(C)`` or ``LP(σ^π)``) by
    explicit enumeration of all logical paths."""
    return {
        lp
        for lp in enumerate_logical_paths(circuit, limit=limit)
        if exists_vector(circuit, criterion, lp, sort)
    }


def exact_lp_sigma(circuit: Circuit, sort: InputSort) -> set[LogicalPath]:
    """``LP(σ^π)`` computed through Algorithm 1 (stabilizing systems) —
    the left-hand side of Lemma 2's equivalence."""
    from repro.stabilize.assignment import assignment_from_sort

    return assignment_from_sort(circuit, sort).logical_paths()


def robust_dependent_set(
    circuit: Circuit, sort: InputSort, limit: int = 100_000
) -> set[LogicalPath]:
    """The exact RD-set ``RD(σ^π) = LP(C) \\ LP(σ^π)`` for small circuits."""
    selected = exact_path_set(circuit, Criterion.SIGMA_PI, sort, limit=limit)
    return {
        lp
        for lp in enumerate_logical_paths(circuit, limit=limit)
        if lp not in selected
    }


def testability_counts(circuit: Circuit, limit: int = 100_000) -> tuple[int, int, int]:
    """(|T(C)|, |FS(C)|, |LP(C)|) exactly — the Figure 3 hierarchy."""
    total = 0
    t_count = 0
    fs_count = 0
    for lp in enumerate_logical_paths(circuit, limit=limit):
        total += 1
        if exists_vector(circuit, Criterion.NR, lp):
            t_count += 1
        if exists_vector(circuit, Criterion.FS, lp):
            fs_count += 1
    return t_count, fs_count, total


def is_po_constant(circuit: Circuit, po: int) -> bool:
    """True if the PO computes a constant function (such outputs have no
    testable paths at all; generators avoid them)."""
    n = len(circuit.inputs)
    if n > _MAX_INPUTS:
        raise ExactLimitError(
            f"constant check is exponential in #PIs ({n} > {_MAX_INPUTS}); "
            "the SAT-exact mode (repro.verdict) scales past this limit"
        )
    seen = set()
    for vector in all_vectors(n):
        seen.add(simulate(circuit, vector)[po])
        if len(seen) > 1:
            return False
    return True
