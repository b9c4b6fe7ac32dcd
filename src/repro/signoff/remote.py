"""Remote signoff: per-domain fan-out over the analysis service.

The client-side half of the wire contract in
:mod:`repro.service.protocol`: the *client* decomposes the design into
capture domains (:func:`repro.signoff.query.domain_circuits`), ships
each cone as its own ``signoff`` request — independently fingerprinted,
hence independently hashed across fleet shards, coalesced with
identical in-flight queries, and store-cached — and merges the answers
with the same :func:`~repro.signoff.report.merge_rows` used by the
local path.  Every request carries the cone's full delay assignment as
sidecar-format annotation text, so client and server can never disagree
about a fallback.

Parity caveat: the wire ships cones as ``.bench`` text, and the
``write_bench``/``parse_bench`` round trip renames PO sink gates to
``<driver>_po``.  For bench-origin circuits (including every expanded
:class:`~repro.circuit.sequential.ScanCircuit`) PO sinks already follow
that convention, so remote rows are byte-identical to local ones.
"""

from __future__ import annotations

from repro.timing.annotate import write_delay_annotations

from repro.signoff.query import _prepare_query, _query_report
from repro.signoff.report import SignoffReport, SignoffRow

__all__ = ["signoff_remote"]


def signoff_remote(
    source,
    client,
    *,
    k: "int | None" = None,
    slack: "float | None" = None,
    scan: "bool | None" = None,
    delays=None,
    annotations: "dict | None" = None,
    seed: int = 0,
    base: str = "random",
    deadline: "float | None" = None,
    on_event=None,
) -> SignoffReport:
    """Answer a signoff query through a connected
    :class:`~repro.service.client.ServiceClient`.

    Accepts the same ``source`` / query / delay arguments as
    :func:`repro.signoff.signoff` and returns the same
    :class:`SignoffReport` — the table is byte-identical to a local run
    (see the module docstring for the ``.bench`` round-trip caveat).
    ``deadline`` is a per-domain budget in seconds.
    """
    query = _prepare_query(
        source, k, slack, scan, delays, annotations, seed, base
    )
    counters: dict = {}
    sources: dict = {}
    row_lists = []
    for capture, cone, map_delays in query.domains:
        result = client.signoff(
            circuit=cone,
            k=query.k,
            slack=query.slack,
            delays=write_delay_annotations(map_delays(query.delays)),
            deadline=deadline,
            on_event=on_event,
        )
        row_lists.append(
            [SignoffRow.from_table_row(row) for row in result["rows"]]
        )
        sources[capture] = result["source"]
        for name, value in result["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return _query_report(query, row_lists, counters, sources)
