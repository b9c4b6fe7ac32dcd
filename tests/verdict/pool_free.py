"""Reference verdict oracle without a witness pool.

This is :class:`repro.verdict.VerdictOracle`'s decision body as it was
before the oracle kept a witness pool: every query that is not
trivially unsatisfiable goes to the one incremental solver, and every
SAT model is decoded and replayed through
:func:`repro.classify.exact.satisfies_criterion`.  It is kept here as
the differential reference — the pooled oracle must return the same
``in_set`` for every path.
"""

from __future__ import annotations

from repro.classify.conditions import Criterion
from repro.classify.exact import satisfies_criterion
from repro.errors import VerdictError
from repro.verdict.encode import encoder_for
from repro.verdict.oracle import DEFAULT_MAX_CONFLICTS, PathVerdict


class PoolFreeOracle:
    """One solver, every SAT witness replayed, nothing remembered."""

    def __init__(self, circuit, max_conflicts=DEFAULT_MAX_CONFLICTS):
        self.circuit = circuit
        self.encoder = encoder_for(circuit)
        self.solver = self.encoder.fresh_solver()
        self.max_conflicts = max_conflicts

    def decide(self, logical_path, criterion=Criterion.SIGMA_PI, sort=None):
        query = self.encoder.query(logical_path, criterion, sort)
        if query.trivially_unsat:
            return PathVerdict(in_set=False)
        result = self.solver.solve(
            assumptions=list(query.assumptions),
            max_conflicts=self.max_conflicts,
        )
        if not result.sat:
            return PathVerdict(in_set=False)
        witness = self.encoder.decode_witness(result.model)
        if not satisfies_criterion(
            self.circuit, criterion, logical_path, witness, sort
        ):
            raise VerdictError(f"SAT witness {witness} failed replay")
        return PathVerdict(in_set=True, witness=witness)
