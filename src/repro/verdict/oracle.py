"""The SAT-backed exact verdict oracle.

:class:`VerdictOracle` uses the circuit's shared
:class:`SensitizationEncoder` (:func:`encoder_for`) and owns one
incremental :class:`repro.atpg.sat.Solver`, a copy of the encoder's
never-solved one-frame template, and answers true
``LP(σ^π)`` / ``FS(C)`` / ``T(C)`` membership per logical path —
without the ``2^n`` input-count ceiling of
:func:`repro.classify.exact.exists_vector`.

Every SAT answer is a *checkable certificate*: the model is decoded to
a PI vector and replayed through :mod:`repro.logic.simulate` (via
:func:`repro.classify.exact.satisfies_criterion`); a witness that does
not replay raises :class:`VerdictError` — the oracle refuses to return
an unverified positive.  UNSAT answers carry no witness; on small
circuits they are differential-tested against ``exists_vector``.

Telemetry: ``verdict.queries`` / ``verdict.sat`` / ``verdict.unsat`` /
``verdict.trivial_unsat`` counters, solver work as
``verdict.conflicts`` / ``verdict.decisions`` /
``verdict.learned_reuse``, and ``verdict.witness_replays`` for the
certificate checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.exact import satisfies_criterion
from repro.errors import VerdictError
from repro.obs import get_registry
from repro.paths.path import LogicalPath
from repro.verdict.encode import encoder_for

if TYPE_CHECKING:
    from repro.sorting.input_sort import InputSort

#: Per-query conflict ceiling.  Path queries are almost pure BCP; a
#: query that burns this many conflicts indicates an encoding bug, so
#: the oracle surfaces it as :class:`VerdictError` instead of looping.
DEFAULT_MAX_CONFLICTS = 100_000


@dataclass(frozen=True)
class PathVerdict:
    """The exact answer for one (path, criterion) membership question.

    ``witness`` is a simulation-replayed PI vector when ``in_set``
    (``None`` for UNSAT); the solver-work fields are diagnostics and
    depend on query order, so deterministic tables must not include
    them.
    """

    in_set: bool
    witness: "tuple[int, ...] | None" = None
    conflicts: int = 0
    decisions: int = 0
    learned_reuse: int = 0

    def __bool__(self) -> bool:
        return self.in_set


class VerdictOracle:
    """Incremental exact decisions for every path of one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        max_conflicts: int = DEFAULT_MAX_CONFLICTS,
        replay_witnesses: bool = True,
    ) -> None:
        self.circuit = circuit
        self.encoder = encoder_for(circuit)
        self.solver = self.encoder.fresh_solver()
        self.max_conflicts = max_conflicts
        self.replay_witnesses = replay_witnesses

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
        if self.replay_witnesses:
            if not satisfies_criterion(
                self.circuit, criterion, logical_path, witness, sort
            ):
                raise VerdictError(
                    f"SAT witness {witness} failed simulation replay for "
                    f"path {logical_path.describe(self.circuit)} under "
                    f"{criterion.name} — encoder/solver disagree"
                )
            registry.counter("verdict.witness_replays").inc()
        registry.counter("verdict.sat").inc()
        return PathVerdict(
            in_set=True,
            witness=witness,
            conflicts=result.conflicts,
            decisions=result.decisions,
            learned_reuse=result.learned_reuse,
        )

    def solver_stats(self) -> dict:
        """Cumulative solver counters across every query so far."""
        return self.solver.stats.to_dict()
