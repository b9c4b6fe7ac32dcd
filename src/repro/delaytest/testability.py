"""SAT-exact testability of logical paths.

Conditions per on-path gate with on-path lead ``l`` (simple gates; ``c``
is the controlling value, ``nc`` its complement; ``val2(l)`` is the
final stable value the transition carries into ``l``):

=====================  =========================  =========================
test class             val2(l) = nc ("to-nc")     val2(l) = c ("to-c")
=====================  =========================  =========================
functionally sens.     sides nc under v2          —
non-robust (Def 5)     sides nc under v2          sides nc under v2
robust (Lin–Reddy)     sides nc under v2          sides nc under v1 AND v2
=====================  =========================  =========================

For robust tests the to-c side inputs must be *steady* non-controlling —
otherwise the gate output shows no transition (masking), which is the
classical robust sensitization rule.

Each function is a thin wrapper over the circuit's shared
:class:`~repro.verdict.encode.SensitizationEncoder`
(:func:`~repro.verdict.encode.encoder_for`): the circuit is
Tseitin-encoded once per frame (one frame for FS/NR, two for robust)
and each path is one SAT query, solved on a pristine copy of a
never-solved template solver with the path's conditions as level-0
units.  A query therefore returns the same witness as a solver built
from scratch for that path, whatever was asked before it.  The copy is
copy-on-write: it shares the template's clause and watch lists until
its search rewrites one, so it does not duplicate every literal.  The
queries are per explicit path and therefore meant for small/medium
circuits (the fast classifier in :mod:`repro.classify` is the
scalable approximation).

Telemetry: ``delaytest.queries`` counts the queries and
``delaytest.encodings_built`` the Tseitin frames encoded.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.obs import get_registry
from repro.paths.path import LogicalPath


def _encoder(circuit: Circuit):
    """The circuit's cached encoder, counting one query."""
    # imported per call: repro.verdict imports repro.experiments, whose
    # figures import this module
    from repro.verdict.encode import encoder_for

    get_registry().counter("delaytest.queries").inc()
    return encoder_for(circuit)


def _vector(circuit: Circuit, lp: LogicalPath, criterion: Criterion):
    encoder = _encoder(circuit)
    model = encoder.solve(encoder.query(lp, criterion))
    return None if model is None else encoder.decode_witness(model)


def fs_vector(circuit: Circuit, lp: LogicalPath):
    """A vector functionally sensitizing ``lp`` (Definition 4), or None."""
    return _vector(circuit, lp, Criterion.FS)


def nonrobust_test(circuit: Circuit, lp: LogicalPath):
    """The second vector of a non-robust test (Definition 5), or None."""
    return _vector(circuit, lp, Criterion.NR)


def robust_test(circuit: Circuit, lp: LogicalPath):
    """A robust two-pattern test ``(v1, v2)`` for ``lp``, or None.

    Frame 2 must non-robustly sensitize the path, and at every
    to-controlling on-path gate the side inputs must additionally be
    non-controlling in frame 1 (steady sides).  Frame 1 sets the path
    PI to the initial value.
    """
    encoder = _encoder(circuit)
    model = encoder.solve(encoder.robust_query(lp))
    return None if model is None else encoder.decode_pair(model)


def is_robustly_testable(circuit: Circuit, lp: LogicalPath) -> bool:
    return robust_test(circuit, lp) is not None


def is_nonrobustly_testable(circuit: Circuit, lp: LogicalPath) -> bool:
    return nonrobust_test(circuit, lp) is not None


def coverage(circuit: Circuit, selected_paths) -> tuple[int, int, float]:
    """Robust fault coverage of a selected path set (Theorem 1's notion:
    testable / |LP(σ)|).  Returns (testable, total, fraction)."""
    paths = list(selected_paths)
    testable = sum(1 for lp in paths if is_robustly_testable(circuit, lp))
    total = len(paths)
    return testable, total, (testable / total if total else 1.0)


__all__ = [
    "fs_vector",
    "nonrobust_test",
    "robust_test",
    "is_robustly_testable",
    "is_nonrobustly_testable",
    "coverage",
]
