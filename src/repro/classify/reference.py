"""Reference Algorithm-2 implementation (trail-based, object-graph walk).

This is the original enumeration core that :mod:`repro.classify.engine`
replaced with the word-parallel bitset kernel over the flat IR.  It walks
the :class:`~repro.circuit.netlist.Circuit` object graph and injects the
criterion's side-input conditions one ``assume`` at a time into a
trail-based :class:`~repro.logic.implication.ImplicationEngine`.

It is kept (and exercised by the equivalence tests) as the *differential
oracle*: both engines perform exactly the same deduction per extension —
the bitset kernel just precomputes the closure of the unconditional rules
— so ``accepted``, ``edges_visited``, ``lead_ctrl_counts`` and the DFS
acceptance order must match bit for bit on every circuit.  A mismatch
means a bug in the bitset kernel, never an accepted difference.

Roughly an order of magnitude slower than the production engine; use only
in tests and cross-checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.circuit.gates import GateType, controlling_value, has_controlling_value
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion, required_side_pins
from repro.classify.results import ClassificationResult
from repro.errors import ClassifyError
from repro.logic.implication import ImplicationEngine
from repro.logic.values import controlled_output, uncontrolled_output
from repro.paths.count import PathCounts, count_paths
from repro.paths.path import LogicalPath
from repro.util.timer import Stopwatch

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.sorting.input_sort import InputSort

_K_PO = 0
_K_WIRE = 1  # BUF
_K_NOT = 2
_K_SIMPLE = 3


class _ReferenceTables:
    """Static per-lead tables for one (circuit, criterion, sort) run."""

    def __init__(
        self, circuit: Circuit, criterion: Criterion, sort: InputSort | None
    ) -> None:
        if criterion.needs_sort and sort is None:
            raise ValueError("SIGMA_PI classification requires an input sort")
        n = circuit.num_gates
        self.kind = [0] * n
        self.ctrl = [-2] * n
        self.out_ctrl = [0] * n
        self.out_nc = [0] * n
        self.nc = [0] * n
        for g in range(n):
            t = circuit.gate_type(g)
            if t is GateType.PO:
                self.kind[g] = _K_PO
            elif t is GateType.BUF:
                self.kind[g] = _K_WIRE
            elif t is GateType.NOT:
                self.kind[g] = _K_NOT
            elif has_controlling_value(t):
                self.kind[g] = _K_SIMPLE
                self.ctrl[g] = controlling_value(t)
                self.nc[g] = 1 - self.ctrl[g]
                self.out_ctrl[g] = controlled_output(t)
                self.out_nc[g] = uncontrolled_output(t)
            elif t is not GateType.PI:
                raise ValueError(f"unsupported gate type {t.name}")
        # For every lead into a simple gate: source nets that must be
        # non-controlling when the on-path value is non-controlling
        # (side_nc_all) vs controlling (side_nc_ctrl, criterion-specific).
        m = circuit.num_leads
        self.side_all: list[tuple[int, ...]] = [()] * m
        self.side_ctrl: list[tuple[int, ...]] = [()] * m
        for lead in range(m):
            dst = circuit.lead_dst(lead)
            if self.kind[dst] != _K_SIMPLE:
                continue
            fanin = circuit.fanin(dst)
            all_pins = required_side_pins(criterion, circuit, lead, False, sort)
            ctrl_pins = required_side_pins(criterion, circuit, lead, True, sort)
            self.side_all[lead] = tuple(fanin[p] for p in all_pins)
            self.side_ctrl[lead] = tuple(fanin[p] for p in ctrl_pins)
        # Fanout adjacency: (lead, dst) pairs per gate.
        self.fanout: list[tuple[tuple[int, int], ...]] = [
            tuple(
                (circuit.lead_index(dst, pin), dst)
                for dst, pin in circuit.fanout(g)
            )
            for g in range(n)
        ]


def _run_reference(
    circuit: Circuit,
    criterion: Criterion,
    tables: _ReferenceTables,
    engine: ImplicationEngine,
    counts: PathCounts,
    collect_lead_counts: bool,
    max_accepted: int | None,
    on_path: Callable[[LogicalPath], None] | None,
) -> ClassificationResult:
    """The reference enumeration core.

    Iterative DFS with an explicit frame stack; a frame is the mutable
    list ``[branches, next_index, value, entry_mark, entered_via_lead]``
    — the fanout branches still to try at the current gate, the on-path
    value at its output, and the trail mark / path bookkeeping to unwind
    when the frame is exhausted.  The engine's trail is restored to its
    entry state even on exceptions, so engines may be reused across runs.
    """
    accepted = 0
    edges = 0
    lead_counts = [0] * circuit.num_leads if collect_lead_counts else []
    # Stack of (lead, final value at lead equals dst's controlling value).
    ctrl_stack: list[tuple[int, bool]] = []
    path_stack: list[int] = []

    kind = tables.kind
    ctrl = tables.ctrl
    out_ctrl = tables.out_ctrl
    out_nc = tables.out_nc
    nc = tables.nc
    side_all = tables.side_all
    side_ctrl = tables.side_ctrl
    fanout = tables.fanout
    assume = engine.assume
    mark = engine.mark
    undo = engine.undo_to
    if on_path is not None:
        from repro.paths.path import PhysicalPath  # local: rarely used

    base = mark()
    with Stopwatch() as sw:
        try:
            for pi in circuit.inputs:
                for x in (1, 0):
                    m0 = mark()
                    if assume(pi, x):
                        frames = [[fanout[pi], 0, x, m0, False]]
                        while frames:
                            frame = frames[-1]
                            branches = frame[0]
                            i = frame[1]
                            if i == len(branches):
                                frames.pop()
                                if frame[4]:
                                    path_stack.pop()
                                    ctrl_stack.pop()
                                    undo(frame[3])
                                continue
                            frame[1] = i + 1
                            lead, dst = branches[i]
                            edges += 1
                            k = kind[dst]
                            if k == _K_PO:
                                accepted += 1
                                if (
                                    max_accepted is not None
                                    and accepted > max_accepted
                                ):
                                    raise ClassifyError(
                                        f"more than {max_accepted} paths "
                                        "accepted; raise max_accepted or use "
                                        "a smaller circuit"
                                    )
                                if collect_lead_counts:
                                    for l2, is_c in ctrl_stack:
                                        if is_c:
                                            lead_counts[l2] += 1
                                if on_path is not None:
                                    on_path(
                                        LogicalPath(
                                            PhysicalPath(
                                                tuple(path_stack) + (lead,)
                                            ),
                                            x,
                                        )
                                    )
                                continue
                            val = frame[2]
                            m = mark()
                            if k == _K_SIMPLE:
                                is_ctrl = val == ctrl[dst]
                                if is_ctrl:
                                    sides = side_ctrl[lead]
                                    newval = out_ctrl[dst]
                                else:
                                    sides = side_all[lead]
                                    newval = out_nc[dst]
                                ok = True
                                ncv = nc[dst]
                                for src in sides:
                                    if not assume(src, ncv):
                                        ok = False
                                        break
                                if ok:
                                    ok = assume(dst, newval)
                            elif k == _K_NOT:
                                is_ctrl = False
                                newval = 1 - val
                                ok = assume(dst, newval)
                            else:  # _K_WIRE
                                is_ctrl = False
                                newval = val
                                ok = assume(dst, newval)
                            if ok:
                                ctrl_stack.append((lead, is_ctrl))
                                path_stack.append(lead)
                                frames.append(
                                    [fanout[dst], 0, newval, m, True]
                                )
                            else:
                                undo(m)
                    undo(m0)
        finally:
            undo(base)
    return ClassificationResult(
        circuit_name=circuit.name,
        criterion=criterion,
        total_logical=counts.total_logical,
        accepted=accepted,
        elapsed=sw.elapsed,
        lead_ctrl_counts=lead_counts,
        edges_visited=edges,
    )


def classify_reference(
    circuit: Circuit,
    criterion: Criterion,
    sort: InputSort | None = None,
    collect_lead_counts: bool = False,
    max_accepted: int | None = None,
    on_path: Callable[[LogicalPath], None] | None = None,
    counts: PathCounts | None = None,
) -> ClassificationResult:
    """Count ``|LP^sup|`` with the reference trail-based engine.

    Same contract as :func:`repro.classify.engine.classify` (minus the
    ``session`` parameter); exists so tests can cross-check the bitset
    kernel against an independent implementation.
    """
    tables = _ReferenceTables(circuit, criterion, sort)
    engine = ImplicationEngine(circuit)
    if counts is None:
        counts = count_paths(circuit)
    return _run_reference(
        circuit,
        criterion,
        tables,
        engine,
        counts,
        collect_lead_counts,
        max_accepted,
        on_path,
    )


def check_logical_path_reference(
    circuit: Circuit,
    criterion: Criterion,
    logical_path: LogicalPath,
    sort: InputSort | None = None,
) -> bool:
    """Trail-based check of one explicit logical path (reference)."""
    tables = _ReferenceTables(circuit, criterion, sort)
    engine = ImplicationEngine(circuit)
    pi = logical_path.path.source(circuit)
    val = logical_path.final_value
    if not engine.assume(pi, val):
        return False
    for lead in logical_path.path.leads:
        dst = circuit.lead_dst(lead)
        k = tables.kind[dst]
        if k == _K_PO:
            return True
        if k == _K_SIMPLE:
            if val == tables.ctrl[dst]:
                sides = tables.side_ctrl[lead]
                newval = tables.out_ctrl[dst]
            else:
                sides = tables.side_all[lead]
                newval = tables.out_nc[dst]
            ncv = tables.nc[dst]
            for src in sides:
                if not engine.assume(src, ncv):
                    return False
            if not engine.assume(dst, newval):
                return False
            val = newval
        elif k == _K_NOT:
            val = 1 - val
            if not engine.assume(dst, val):
                return False
        else:
            if not engine.assume(dst, val):
                return False
    raise ValueError("path does not terminate at a PO")
