"""Timing signoff: K-longest / above-slack robustly-testable paths.

The query layer composing lazy best-first path enumeration
(:mod:`repro.timing.kpaths`) with robust-testability filtering — the
Lemma-2 prefilter and the final two-frame robust-test verdict — per launch/capture domain, under an
annotated per-gate :class:`~repro.timing.delays.DelayAssignment`.

Entry points:

* :func:`signoff` — the full local query on anything
  :func:`repro.loading.load` resolves (path, ``Circuit``,
  ``ScanCircuit``, suite name); scan designs fan out per capture
  domain through its ``runner``.
* :func:`signoff_remote` — the same query through a connected
  :class:`~repro.service.client.ServiceClient`, one wire request per
  domain.
* :func:`signoff_core` — one domain, one circuit: the store-cached
  kernel both of the above call.
"""

from repro.signoff.query import (
    DEFAULT_K,
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_STATES,
    domain_circuits,
    row_from_path,
    signoff,
    signoff_core,
    signoff_variant,
)
from repro.signoff.remote import signoff_remote
from repro.signoff.report import (
    SIGNOFF_SCHEMA,
    SignoffReport,
    SignoffRow,
    merge_rows,
)

__all__ = [
    "DEFAULT_K",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_STATES",
    "SIGNOFF_SCHEMA",
    "SignoffReport",
    "SignoffRow",
    "domain_circuits",
    "merge_rows",
    "row_from_path",
    "signoff",
    "signoff_core",
    "signoff_remote",
    "signoff_variant",
]
