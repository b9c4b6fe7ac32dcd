"""CNF encoding of per-path sensitization side-conditions.

:class:`SensitizationEncoder` is the one place that walks a logical
path's side conditions.  It serves two kinds of consumer from the same
per-circuit encodings:

* :class:`repro.verdict.VerdictOracle` keeps one *incremental* solver
  over the one-frame encoding and passes each path's literals as unit
  assumptions (its answers are membership bits; the solver's learned
  clauses and phases carry over from query to query);
* the witness-returning tests of :mod:`repro.delaytest.testability`
  (:func:`~repro.delaytest.testability.fs_vector`,
  :func:`~repro.delaytest.testability.nonrobust_test`,
  :func:`~repro.delaytest.testability.robust_test`) solve every query
  on a *pristine copy* of a never-solved template solver
  (:meth:`SensitizationEncoder.solve`).

The pristine-copy rule
----------------------

A witness is an output: testgen digests and signoff tables depend on
which vector the solver finds, not only on whether one exists.  A
persistent solver would carry phases, activities and learned clauses
from one query into the next and change some witnesses with the query
order.  A copy of the never-solved template, with the query's literals
added as level-0 units in first-occurrence order, holds exactly the
state a solver built from scratch for the query's CNF would hold — the
same clause list, the same unit order, zeroed heuristics — so it finds
the same model, and only the encoding and the solver set-up are shared.
:meth:`~repro.atpg.sat.Solver.copy` is copy-on-write: the copy shares
the template's clause and watch lists and copies each one only when its
own search first rewrites it, so the copy is still pristine but no
longer duplicates every literal of the CNF.

Encodings are built lazily and at most once per circuit: frame 1 (the
one-frame Tseitin encoding, variables ``1..n``) for FS, NR and σ^π
queries, and a second frame (variables ``n+1..2n``, its clauses after
frame 1's) for robust queries.  :func:`encoder_for` caches the encoder
on the circuit next to its flat IR; :meth:`Circuit.replace_gate` drops
both.

Why unit literals suffice
-------------------------

The criterion conditions ((FU1)-(FU2), (NR1)-(NR2), (π1)-(π3)) branch
on whether the *stable on-path value* entering each gate is the gate's
controlling value.  Along the path, that value is fully determined by
the transition's final value at the PI and the inverting gates crossed
— it is :meth:`LogicalPath.value_at`, not a free variable:

* if the on-path value is controlling, the gate output equals its
  forced value regardless of side inputs (the CNF derives this by unit
  propagation);
* if it is non-controlling, the criterion requires every relevant side
  input non-controlling, and then the output is again forced.

Either way the branch taken by ``satisfies_criterion`` under *any*
satisfying vector matches the statically-computed on-path value, so
the whole query is: base CNF + unit literals ``PI(P) = final value``
and ``side input = non-controlling value`` for each side pin the
criterion table names.  SAT ⟺ :func:`repro.classify.exact.exists_vector`
(differential-tested).  A robust query adds frame-1 literals: the path
PI at its initial value, and the side inputs of every to-controlling
gate steady at their non-controlling value.

The walk runs over the flat CSR IR (:mod:`repro.circuit.flat`): lead
``l`` feeds pin ``l - fanin_start[lead_dst[l]]`` of ``lead_dst[l]``
from source ``fanin_gates[l]``, and the per-gate ``ctrl``/``out_ctrl``/
``out_nc`` tables drive both the branch choice and the on-path value
update.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.atpg.cnf import CNF
from repro.atpg.sat import Solver
from repro.atpg.tseitin import CircuitEncoding, tseitin_encode
from repro.circuit.flat import K_NOT, K_SIMPLE
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.obs import get_registry
from repro.paths.path import LogicalPath

if TYPE_CHECKING:  # annotation-only; avoids a verdict <-> sorting cycle
    from repro.sorting.input_sort import InputSort


@dataclass(frozen=True)
class PathQuery:
    """One path's sensitization question, ready for the solver.

    ``assumptions`` are DIMACS literals over the first ``frames``
    frames of the circuit's encoding, in first-occurrence order;
    ``trivially_unsat`` is set when two side-conditions demand opposite
    values of the same variable (no solver call needed — the query is
    unsatisfiable by construction).
    """

    assumptions: tuple[int, ...]
    trivially_unsat: bool = False
    frames: int = 1


def _lit(var: int, value: int) -> int:
    return var if value else -var


def _path_query(literals: Iterable[int], frames: int = 1) -> PathQuery:
    first: dict[int, int] = {}  # var -> first literal; keeps the order
    contradiction = False
    for lit in literals:
        if first.setdefault(abs(lit), lit) != lit:
            contradiction = True
    return PathQuery(tuple(first.values()), contradiction, frames)


class SensitizationEncoder:
    """Per-circuit Tseitin frames and solver templates, plus the
    per-path side-condition walk.

    The encoder holds its circuit weakly: :func:`encoder_for` caches it
    on the circuit, and a strong back-reference would keep every
    circuit, CNF and template solver alive until the cyclic collector
    runs.
    """

    def __init__(self, circuit: Circuit) -> None:
        self._circuit = weakref.ref(circuit)
        #: frame k's encoding; its CNF holds the clauses of frames 1..k
        self._frames: list[CircuitEncoding] = []
        #: frame k's gate -> variable table
        self._vars: list[list[int]] = []
        #: never-solved solver over the first ``frames`` frames
        self._templates: dict[int, Solver] = {}

    @property
    def circuit(self) -> Circuit:
        """The encoded circuit."""
        return self._circuit()

    def _frame(self, index: int) -> CircuitEncoding:
        frames = self._frames
        while len(frames) <= index:
            circuit = self._circuit()
            cnf = None
            if frames:
                below = frames[-1].cnf
                cnf = CNF(below.num_vars)
                cnf.clauses = list(below.clauses)
            encoding = tseitin_encode(circuit, cnf)
            get_registry().counter("delaytest.encodings_built").inc()
            frames.append(encoding)
            self._vars.append([
                encoding.var_of_gate.get(g, 0)
                for g in range(circuit.num_gates)
            ])
        return frames[index]

    def _var(self, index: int) -> list[int]:
        self._frame(index)
        return self._vars[index]

    @property
    def encoding(self) -> CircuitEncoding:
        """The one-frame base encoding."""
        return self._frame(0)

    @property
    def gate_vars(self) -> list[int]:
        """Frame 1's gate -> variable table (the variables of
        :meth:`query`'s literals)."""
        return self._var(0)

    def fresh_solver(self, frames: int = 1) -> Solver:
        """A never-solved solver over the first ``frames`` frames: a copy
        of the cached template, equal to ``Solver(cnf)`` without
        re-adding the clauses."""
        template = self._templates.get(frames)
        if template is None:
            template = Solver(self._frame(frames - 1).cnf)
            self._templates[frames] = template
        return template.copy()

    def _side_inputs(
        self,
        logical_path: LogicalPath,
        criterion: Criterion,
        sort: "InputSort | None",
    ) -> "Iterator[tuple[int, int, bool]]":
        """``(side gate, non-controlling value, to-controlling)`` for
        every side input ``criterion`` constrains, in path then pin
        order; to-controlling means the stable on-path value entering
        the gate is its controlling value."""
        flat = self._circuit().flat
        kind = flat.kind
        ctrl = flat.ctrl
        out_ctrl = flat.out_ctrl
        out_nc = flat.out_nc
        fanin_start = flat.fanin_start
        fanin_gates = flat.fanin_gates
        lead_dst = flat.lead_dst
        sigma = criterion is Criterion.SIGMA_PI
        if sigma and sort is None:
            raise ValueError("SIGMA_PI criterion requires an input sort")
        fs = criterion is Criterion.FS
        value = logical_path.final_value
        for lead in logical_path.path.leads:
            dst = lead_dst[lead]
            k = kind[dst]
            if k == K_SIMPLE:
                c = ctrl[dst]
                start = fanin_start[dst]
                end = fanin_start[dst + 1]
                to_c = value == c
                if not to_c:
                    # (FU2)/(NR2)/(π2): every side input non-controlling.
                    side = range(start, end)
                elif fs:
                    side = ()
                elif sigma:
                    # (π3): only the low-order side inputs of the lead.
                    side = (start + p for p in sort.low_order_side_pins(lead))
                else:  # NR: all side inputs, controlling case included
                    side = range(start, end)
                nc = 1 - c
                for side_lead in side:
                    if side_lead != lead:
                        yield fanin_gates[side_lead], nc, to_c
                value = out_ctrl[dst] if to_c else out_nc[dst]
            elif k == K_NOT:
                value = 1 - value
            # K_WIRE / K_PO forward the value and impose no conditions.

    def query(
        self,
        logical_path: LogicalPath,
        criterion: Criterion,
        sort: "InputSort | None" = None,
    ) -> PathQuery:
        """The criterion's conditions for ``logical_path`` over frame 1:
        the path PI at its final value ((FU1)/(NR1)/(π1)), then each
        constrained side input at its non-controlling value."""
        var = self._var(0)
        source = logical_path.path.source(self._circuit())

        def literals() -> Iterator[int]:
            yield _lit(var[source], logical_path.final_value)
            for gate, nc, _to_c in self._side_inputs(
                logical_path, criterion, sort
            ):
                yield _lit(var[gate], nc)

        return _path_query(literals())

    def robust_query(self, logical_path: LogicalPath) -> PathQuery:
        """Robust (Lin–Reddy) conditions over two frames: frame 1 holds
        the path PI at its initial value, frame 2 the non-robust
        conditions, and each to-controlling gate's side inputs are
        non-controlling in frame 1 too (steady).  Per side input the
        frame-2 literal precedes its frame-1 literal."""
        var1 = self._var(0)
        var2 = self._var(1)
        source = logical_path.path.source(self._circuit())
        final = logical_path.final_value

        def literals() -> Iterator[int]:
            yield _lit(var1[source], 1 - final)
            yield _lit(var2[source], final)
            for gate, nc, to_c in self._side_inputs(
                logical_path, Criterion.NR, None
            ):
                yield _lit(var2[gate], nc)
                if to_c:
                    yield _lit(var1[gate], nc)

        return _path_query(literals(), frames=2)

    def solve(self, query: PathQuery) -> "list | None":
        """A model of ``query`` from a pristine copy of its template, or
        None when it is unsatisfiable.  The literals become level-0
        units in query order, so the model is the one a solver built
        from scratch for the query's CNF returns."""
        if query.trivially_unsat:
            return None
        solver = self.fresh_solver(query.frames)
        for lit in query.assumptions:
            solver.add_unit(lit)
        result = solver.solve()
        return result.model if result.sat else None

    def decode_witness(self, model: list) -> tuple[int, ...]:
        """PI vector (in ``circuit.inputs`` order) from a SAT model."""
        return self._frame(0).decode_inputs(self._circuit(), model)

    def decode_pair(self, model: list) -> "tuple[tuple[int, ...], tuple[int, ...]]":
        """Frame-1 and frame-2 PI vectors from a two-frame model."""
        circuit = self._circuit()
        return (
            self._frame(0).decode_inputs(circuit, model),
            self._frame(1).decode_inputs(circuit, model),
        )


def encoder_for(circuit: Circuit) -> SensitizationEncoder:
    """The circuit's encoder, built once and cached on the circuit.

    :meth:`Circuit.replace_gate` drops the cache together with the flat
    IR; unpickling starts without one.  Like the flat IR, the cache is
    unlocked: a circuit serves one thread at a time (the daemon checks
    each session, and with it its circuit, out to one request).
    """
    circuit._require_frozen()  # noqa: SLF001 - deliberate check
    encoder = circuit._sensitization  # noqa: SLF001 - cache slot owned here
    if encoder is None:
        encoder = circuit._sensitization = SensitizationEncoder(circuit)  # noqa: SLF001
    return encoder
