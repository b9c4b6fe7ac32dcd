"""``repro.verdict`` — the SAT-exact decision subsystem.

Where the word-parallel classifier (:mod:`repro.classify`) computes the
superset ``LP^sup(σ^π)`` by local implications, this package decides
*true* criterion membership per logical path with the incremental CDCL
solver (:mod:`repro.atpg.sat`): one Tseitin base encoding per circuit
(cached on the circuit and shared with :mod:`repro.delaytest`), unit
assumptions per path, simulation-replayed witnesses as checkable
certificates, and ``repro-rd tightness`` tables measuring the Lemma-2
approximation gap (exact vs. approximate RD%).
"""

from repro.verdict.encode import PathQuery, SensitizationEncoder
from repro.verdict.oracle import (
    DEFAULT_MAX_CONFLICTS,
    PathVerdict,
    VerdictOracle,
)
from repro.verdict.tightness import (
    TightnessReport,
    TightnessRow,
    default_suite_circuits,
    run_tightness,
    tightness_row,
)

__all__ = [
    "DEFAULT_MAX_CONFLICTS",
    "PathQuery",
    "PathVerdict",
    "SensitizationEncoder",
    "TightnessReport",
    "TightnessRow",
    "VerdictOracle",
    "default_suite_circuits",
    "run_tightness",
    "tightness_row",
]
