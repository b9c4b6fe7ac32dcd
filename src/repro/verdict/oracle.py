"""The SAT-backed exact verdict oracle.

:class:`VerdictOracle` uses the circuit's shared
:class:`SensitizationEncoder` (:func:`encoder_for`) and owns one
incremental :class:`repro.atpg.sat.Solver`, a copy of the encoder's
never-solved one-frame template, and answers true
``LP(σ^π)`` / ``FS(C)`` / ``T(C)`` membership per logical path —
without the ``2^n`` input-count ceiling of
:func:`repro.classify.exact.exists_vector`.

A path is in the set iff *some* input vector meets its side
conditions, so any vector that meets them is a full certificate,
whichever query first produced it.  The oracle therefore keeps a
bounded **witness pool** (:class:`WitnessPool`): every solver witness,
once replayed, is stored with its simulated gate values and
bit-sliced into one word per frame-1 encoder variable.  A query first
ANDs the words of its assumption literals; a surviving bit names a
pooled witness that meets every literal, and the solver is asked only
when no bit survives.

Every SAT answer is a *checkable certificate*: a solver model is
decoded to a PI vector, simulated through :mod:`repro.logic.simulate`
and checked by :func:`repro.classify.exact.criterion_holds`; a pooled
candidate is checked the same way against its stored values.  A
witness that fails the check raises :class:`VerdictError` — the oracle
refuses to return an unverified positive.  ``PathVerdict.witness`` is
therefore a replayed vector that satisfies *this* path's conditions;
it may have been found for an earlier path, so it is not necessarily
the solver's first model for this one.  UNSAT answers carry no
witness; on small circuits they are differential-tested against
``exists_vector``.

Telemetry: ``verdict.queries`` / ``verdict.sat`` / ``verdict.unsat`` /
``verdict.trivial_unsat`` counters, solver work as
``verdict.conflicts`` / ``verdict.decisions`` /
``verdict.learned_reuse``, ``verdict.pool_hits`` for answers taken
from the pool, and ``verdict.witness_replays`` for the certificate
checks (pooled and solved alike).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.exact import criterion_holds
from repro.errors import VerdictError
from repro.logic.simulate import simulate
from repro.obs import get_registry
from repro.paths.path import LogicalPath
from repro.verdict.encode import encoder_for

if TYPE_CHECKING:
    from repro.sorting.input_sort import InputSort

#: Per-query conflict ceiling.  Path queries are almost pure BCP; a
#: query that burns this many conflicts indicates an encoding bug, so
#: the oracle surfaces it as :class:`VerdictError` instead of looping.
DEFAULT_MAX_CONFLICTS = 100_000

#: Witnesses one oracle's pool holds.  A tightness chunk decides at
#: most ``CHUNK_SIZE`` = 512 paths, and no chunk's oracle stored more
#: than 169 solver witnesses in an ``exact`` pass, so a chunk never
#: evicts; the cap bounds an oracle a library caller keeps for longer.
#: Once full, slots are reused in ring order.
POOL_SIZE = 256


@dataclass(frozen=True)
class PathVerdict:
    """The exact answer for one (path, criterion) membership question.

    ``witness`` is a simulation-replayed PI vector satisfying this
    path's conditions when ``in_set`` (``None`` for UNSAT); it may come
    from the witness pool.  The solver-work fields are diagnostics
    (zero for a pool hit) and depend on query order, so deterministic
    tables must not include them.
    """

    in_set: bool
    witness: "tuple[int, ...] | None" = None
    conflicts: int = 0
    decisions: int = 0
    learned_reuse: int = 0

    def __bool__(self) -> bool:
        return self.in_set


class WitnessPool:
    """Replayed witnesses, bit-sliced by frame-1 encoder variable.

    ``words[v]`` has bit ``i`` set iff variable ``v`` is 1 under the
    witness in slot ``i``; ``live`` has a bit per filled slot and
    ``entries[i]`` is slot ``i``'s ``(witness, gate values)``.
    """

    def __init__(self, gate_vars: Sequence[int], num_vars: int) -> None:
        self.gate_vars = gate_vars
        self.words = [0] * (num_vars + 1)
        self.live = 0
        self.entries: "list[tuple[tuple[int, ...], bytes]]" = []
        self.next_slot = 0

    def match(
        self, assumptions: Sequence[int]
    ) -> "tuple[tuple[int, ...], bytes] | None":
        """The lowest-slot entry whose variables meet every literal of
        ``assumptions``, or None."""
        hits = self.live
        words = self.words
        for lit in assumptions:
            hits &= words[lit] if lit > 0 else ~words[-lit]
            if not hits:
                return None
        return self.entries[(hits & -hits).bit_length() - 1]

    def add(self, witness: "tuple[int, ...]", values: Sequence[int]) -> None:
        """Store ``witness`` and its simulated gate ``values`` in the
        next ring slot; the slot's bit is rewritten in every word, so an
        evicted witness leaves no stale bit behind."""
        slot = self.next_slot
        entry = (witness, bytes(values))
        if slot == len(self.entries):
            self.entries.append(entry)
        else:
            self.entries[slot] = entry
        self.next_slot = (slot + 1) % POOL_SIZE
        bit = 1 << slot
        keep = ~bit
        words = self.words
        for var, value in zip(self.gate_vars, values):
            words[var] = words[var] | bit if value else words[var] & keep
        self.live |= bit


class VerdictOracle:
    """Incremental exact decisions for every path of one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        max_conflicts: int = DEFAULT_MAX_CONFLICTS,
    ) -> None:
        self.circuit = circuit
        self.encoder = encoder_for(circuit)
        self.solver = self.encoder.fresh_solver()
        self.max_conflicts = max_conflicts
        self.pool = WitnessPool(
            self.encoder.gate_vars, self.encoder.encoding.cnf.num_vars
        )
        #: witnesses replayed and checked by this oracle, pooled or solved
        self.replays = 0

    def decide(
        self,
        logical_path: LogicalPath,
        criterion: Criterion = Criterion.SIGMA_PI,
        sort: "InputSort | None" = None,
    ) -> PathVerdict:
        """Exact membership of ``logical_path`` in the criterion set."""
        registry = get_registry()
        registry.counter("verdict.queries").inc()
        query = self.encoder.query(logical_path, criterion, sort)
        if query.trivially_unsat:
            registry.counter("verdict.trivial_unsat").inc()
            registry.counter("verdict.unsat").inc()
            return PathVerdict(in_set=False)
        pooled = self.pool.match(query.assumptions)
        if pooled is not None:
            witness, values = pooled
            self._certify(logical_path, criterion, sort, witness, values,
                          "pooled")
            registry.counter("verdict.pool_hits").inc()
            registry.counter("verdict.sat").inc()
            return PathVerdict(in_set=True, witness=witness)
        try:
            result = self.solver.solve(
                assumptions=list(query.assumptions),
                max_conflicts=self.max_conflicts,
            )
        except RuntimeError as exc:
            raise VerdictError(
                f"solver exhausted {self.max_conflicts} conflicts deciding "
                f"path {logical_path.describe(self.circuit)} under "
                f"{criterion.name}"
            ) from exc
        registry.counter("verdict.conflicts").inc(result.conflicts)
        registry.counter("verdict.decisions").inc(result.decisions)
        registry.counter("verdict.learned_reuse").inc(result.learned_reuse)
        if not result.sat:
            registry.counter("verdict.unsat").inc()
            return PathVerdict(
                in_set=False,
                conflicts=result.conflicts,
                decisions=result.decisions,
                learned_reuse=result.learned_reuse,
            )
        witness = self.encoder.decode_witness(result.model)
        values = simulate(self.circuit, witness)
        self._certify(logical_path, criterion, sort, witness, values, "SAT")
        self.pool.add(witness, values)
        registry.counter("verdict.sat").inc()
        return PathVerdict(
            in_set=True,
            witness=witness,
            conflicts=result.conflicts,
            decisions=result.decisions,
            learned_reuse=result.learned_reuse,
        )

    def _certify(
        self,
        logical_path: LogicalPath,
        criterion: Criterion,
        sort: "InputSort | None",
        witness: "tuple[int, ...]",
        values: Sequence[int],
        origin: str,
    ) -> None:
        """Raise :class:`VerdictError` unless the simulated ``values``
        of ``witness`` meet the criterion for ``logical_path``."""
        if not criterion_holds(
            self.circuit, criterion, logical_path, values, sort
        ):
            raise VerdictError(
                f"{origin} witness {witness} failed simulation replay for "
                f"path {logical_path.describe(self.circuit)} under "
                f"{criterion.name} — encoder and criterion disagree"
            )
        self.replays += 1
        get_registry().counter("verdict.witness_replays").inc()

    def solver_stats(self) -> dict:
        """Cumulative solver counters across every query so far."""
        return self.solver.stats.to_dict()
