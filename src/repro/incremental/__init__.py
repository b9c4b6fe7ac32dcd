"""Incremental re-analysis (ECO) support.

The paper's classification is cone-local, so an edited netlist only
needs its *changed* cones re-analyzed.  This package provides the three
layers of that flow:

* :mod:`repro.incremental.conefp` — per-output-cone content
  fingerprints (``rdcfp1:``) and the cone index (gate-membership
  bitsets, per-gate fold hashes), built in single topological passes
  over the flat IR and cached on the circuit;
* :mod:`repro.incremental.diff` — the CLEAN/DIRTY structural diff of a
  base vs an edited circuit, with per-cone gate deltas;
* :mod:`repro.incremental.reanalyze` — cone-granularity classification
  against the result store's ``kind="cone"`` rows and the end-to-end
  ``repro-rd reanalyze`` ECO flow.
"""

from repro.incremental.conefp import (
    Cone,
    ConeIndex,
    cone_fingerprints,
    cone_index,
)
from repro.incremental.diff import CircuitDiff, ConeDelta, diff_circuits
from repro.incremental.reanalyze import (
    ConeClassifyReport,
    ConeRow,
    ReanalyzeReport,
    cone_classify,
    reanalyze,
)

__all__ = [
    "Cone",
    "ConeClassifyReport",
    "ConeDelta",
    "ConeIndex",
    "ConeRow",
    "CircuitDiff",
    "ReanalyzeReport",
    "cone_classify",
    "cone_fingerprints",
    "cone_index",
    "diff_circuits",
    "reanalyze",
]
