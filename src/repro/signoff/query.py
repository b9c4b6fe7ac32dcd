"""Timing-signoff queries: K-longest / above-slack robustly-testable paths.

The layered filter (fast to exact):

1. **enumerate** — :func:`repro.timing.kpaths.iter_paths_by_delay`
   streams logical paths slowest-first under the annotated
   :class:`DelayAssignment`; only the slow prefix is ever materialized.
2. **prefilter** — Lemma-2 local-implication check against the session's
   cached ``SIGMA_PI`` tables (pin-order π).  Sound for robustness
   regardless of π: ``T(C) ⊆ LP(σ^π)`` holds for *every* sort, so a
   rejection here proves the path is not robustly testable.
3. **verdict** — a two-frame robust-test SAT query
   (:func:`repro.delaytest.robust_test`) confirms every reported path.
   A confirmed path is robustly testable, hence in ``LP(σ^π)`` by
   Lemma 1, so no exact ``LP(σ^π)`` check between the two stages could
   change a row.  :mod:`repro.verdict.tightness` measures the Lemma-2
   gap itself.

Store contract: kind ``"signoff"`` under the queried (domain) circuit's
``rdfp1:`` fingerprint; the variant carries the schema, the canonical
delay digest (``rdly1:``), and the query (``k=``/``slack=``).  Cached
rows are canonical lead positions — name-free, so isomorphic renames
stay safe — and every loaded row is structurally revalidated and its
delay recomputed before being served.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import check_logical_path_tables
from repro.classify.session import CircuitSession
from repro.delaytest.testability import robust_test
from repro.errors import SignoffError
from repro.experiments.supervisor import RowFailure, TaskRunner
from repro.obs import get_registry, span
from repro.paths.path import LogicalPath, PhysicalPath
from repro.sorting.input_sort import InputSort
from repro.timing.annotate import delays_digest, materialize_delays
from repro.timing.delays import DelayAssignment
from repro.timing.kpaths import iter_paths_by_delay
from repro.timing.pathdelay import logical_path_delay

from repro.signoff.report import (
    SIGNOFF_SCHEMA,
    SignoffReport,
    SignoffRow,
    merge_rows,
)

#: Default K for ``signoff()`` when neither ``k`` nor ``slack`` is given.
DEFAULT_K = 10

#: Guard on enumerated candidates per domain (prefilter + verdict work).
DEFAULT_MAX_CANDIDATES = 250_000

#: Frontier-state budget handed to the path enumerator.
DEFAULT_MAX_STATES = 10_000_000

_STAGE_COUNTERS = (
    "candidates",
    "prefilter_rejects",
    "robust_refuted",
    "robust_confirmed",
)


def _zero_counters() -> dict:
    return {name: 0 for name in _STAGE_COUNTERS}


def row_from_path(
    circuit: Circuit, delay: float, lp: LogicalPath
) -> SignoffRow:
    """Spell one enumerated logical path as a :class:`SignoffRow`."""
    return SignoffRow(
        capture=circuit.gate_name(lp.path.sink(circuit)),
        source=circuit.gate_name(lp.path.source(circuit)),
        transition=lp.transition,
        delay=delay,
        pins=tuple(
            (circuit.gate_name(circuit.lead_dst(lead)),
             circuit.lead_pin(lead))
            for lead in lp.path.leads
        ),
    )


# -- store plumbing -----------------------------------------------------
def signoff_variant(
    session: CircuitSession,
    delays: DelayAssignment,
    k: "int | None",
    slack: "float | None",
) -> str:
    digest = delays_digest(delays, canonical=session.canonical)
    query = f"k={k}" if k is not None else f"slack={slack!r}"
    return f"{SIGNOFF_SCHEMA}|{digest}|{query}"


def _load_signoff_payload(
    payload: dict,
    session: CircuitSession,
    delays: DelayAssignment,
    slack: "float | None",
):
    """Strict never-wrong validation of a cached accepted-path set.

    Rows come back as ``(delay, LogicalPath)`` with delays *recomputed*
    from the live assignment (same left-to-right float accumulation as
    the enumerator, so values are bit-equal to a fresh run); any
    structural defect makes the whole entry a miss.
    """
    if payload.get("schema") != SIGNOFF_SCHEMA:
        return None
    raw = payload.get("rows")
    if not isinstance(raw, list):
        return None
    circuit = session.circuit
    lead_order = session.canonical.lead_order
    out = []
    seen = set()
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            return None
        final_value, positions = entry
        if final_value not in (0, 1) or not isinstance(positions, list):
            return None
        if not all(
            isinstance(p, int) and 0 <= p < len(lead_order)
            for p in positions
        ):
            return None
        leads = tuple(lead_order[p] for p in positions)
        if not leads:
            return None
        lp = LogicalPath(PhysicalPath(leads), final_value)
        lp.path.validate(circuit)  # PI→PO connectivity, raises on defect
        key = (leads, final_value)
        if key in seen:
            return None
        seen.add(key)
        delay = logical_path_delay(circuit, lp, delays)
        if slack is not None and delay < slack:
            return None
        out.append((delay, lp))
    return out


def _accepted_payload(session: CircuitSession, accepted) -> dict:
    """Serialize the accepted set as canonical lead positions, sorted —
    a pure function of the circuit's canonical form."""
    position_of = {
        lead: pos for pos, lead in enumerate(session.canonical.lead_order)
    }
    rows = sorted(
        (lp.final_value, [position_of[lead] for lead in lp.path.leads])
        for _delay, lp in accepted
    )
    return {
        "schema": SIGNOFF_SCHEMA,
        "rows": [[fv, positions] for fv, positions in rows],
    }


# -- the per-domain query ----------------------------------------------
def signoff_core(
    circuit,
    delays: "DelayAssignment | None" = None,
    *,
    k: "int | None" = None,
    slack: "float | None" = None,
    session: "CircuitSession | None" = None,
    store=None,
    seed: int = 0,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_states: int = DEFAULT_MAX_STATES,
) -> "tuple[list, dict, str]":
    """Answer one signoff query on a single (domain) circuit.

    Returns ``(rows, counters, source)``: canonical-ordered
    :class:`SignoffRow` lists (truncated to ``k`` in k-mode), the stage
    counters, and ``"computed"`` or ``"store"``.  The store caches the
    *accepted set up to the tie boundary* (order-free), so K-truncation
    and row ordering are always re-derived by the loading circuit.
    """
    k, slack = _resolve_query(k, slack)
    if not isinstance(circuit, Circuit):
        from repro.loading import as_core

        circuit = as_core(circuit)
    if delays is None:
        delays = materialize_delays(circuit, None, seed=seed)
    if delays.circuit is not circuit:
        raise ValueError("delay assignment belongs to a different circuit")
    if session is None:
        session = CircuitSession(circuit, store=store)
    registry = get_registry()
    variant = signoff_variant(session, delays, k, slack)
    cached = session._store_get(  # noqa: SLF001 - session store plumbing
        "signoff",
        variant,
        lambda payload: _load_signoff_payload(payload, session, delays, slack),
    )
    if cached is not None:
        registry.counter("signoff.row_store_hits").inc()
        return _finish(circuit, cached, k), _zero_counters(), "store"

    counters = _zero_counters()
    with span("signoff.domain", circuit=circuit.name):
        sort = InputSort.pin_order(circuit)
        tables = session.tables(Criterion.SIGMA_PI, sort)
        accepted: list = []
        boundary: "float | None" = None
        for delay, lp in iter_paths_by_delay(
            circuit, delays, max_states=max_states
        ):
            if slack is not None and delay < slack:
                break
            if boundary is not None and delay < boundary:
                break
            counters["candidates"] += 1
            if counters["candidates"] > max_candidates:
                raise SignoffError(
                    f"{circuit.name}: more than {max_candidates} candidate "
                    f"paths enumerated; raise the slack threshold or the "
                    f"candidate budget"
                )
            if not check_logical_path_tables(circuit, tables, lp):
                counters["prefilter_rejects"] += 1
                continue
            if robust_test(circuit, lp) is None:
                counters["robust_refuted"] += 1
                continue
            counters["robust_confirmed"] += 1
            accepted.append((delay, lp))
            if k is not None and boundary is None and len(accepted) == k:
                boundary = delay  # keep consuming delay ties
    for name in _STAGE_COUNTERS:
        registry.counter(f"signoff.{name}").inc(counters[name])
    session._store_put(  # noqa: SLF001 - session store plumbing
        "signoff", variant, _accepted_payload(session, accepted)
    )
    return _finish(circuit, accepted, k), counters, "computed"


def _resolve_query(
    k: "int | None", slack: "float | None"
) -> "tuple[int | None, float | None]":
    if k is not None and slack is not None:
        raise ValueError("pass either k or slack, not both")
    if k is None and slack is None:
        k = DEFAULT_K
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    if slack is not None and not math.isfinite(slack):
        raise ValueError(f"slack must be a finite number, got {slack}")
    return k, slack


def _finish(circuit: Circuit, accepted, k: "int | None") -> list:
    rows = [row_from_path(circuit, delay, lp) for delay, lp in accepted]
    rows.sort(key=lambda row: row.sort_key())
    if k is not None:
        rows = rows[:k]
    return rows


# -- scan-domain decomposition -----------------------------------------
def domain_circuits(core: Circuit) -> list:
    """``(capture name, cone, delays mapper)`` per output of ``core``.

    Each capture point's cone is an independent single-output circuit
    (gate names preserved), the unit the store fingerprints, the fleet
    hashes, and the workers compute.  The mapper transfers a core
    :class:`DelayAssignment` onto the cone gate-for-gate, so shared
    logic sees identical delays in every domain.
    """
    out = []
    for po in core.outputs:
        cone, mapping = core.extract_cone(po)

        def map_delays(
            delays: DelayAssignment, cone=cone, mapping=mapping
        ) -> DelayAssignment:
            rise = [0.0] * cone.num_gates
            fall = [0.0] * cone.num_gates
            for old, new in mapping.items():
                rise[new] = delays.rise[old]
                fall[new] = delays.fall[old]
            return DelayAssignment(
                circuit=cone, rise=tuple(rise), fall=tuple(fall)
            )

        out.append((core.gate_name(po), cone, map_delays))
    return out


def _domain_task(payload) -> "tuple[list, dict, str]":
    """Picklable per-domain worker: one cone, one query."""
    cone, rise, fall, k, slack, store, max_candidates, max_states = payload
    delays = DelayAssignment(circuit=cone, rise=rise, fall=fall)
    return signoff_core(
        cone,
        delays,
        k=k,
        slack=slack,
        store=store,
        max_candidates=max_candidates,
        max_states=max_states,
    )


# -- the query's front and back halves (shared with signoff_remote) ----
class _Query(NamedTuple):
    """A resolved query: what both halves need to know."""

    k: "int | None"
    slack: "float | None"
    core: Circuit
    delays: DelayAssignment
    domains: list
    started: float


def _prepare_query(
    source, k, slack, scan, delays, annotations, seed, base
) -> _Query:
    """Resolve ``k``/``slack``, load ``source`` (a ``.bench`` path also
    contributes its ``# delay:`` annotations and ``<stem>.delays``
    sidecar, sidecar wins), materialize the delays and split the core
    into capture domains."""
    from pathlib import Path

    from repro.loading import load
    from repro.timing.annotate import (
        parse_delay_annotations,
        parse_delays_file,
        sidecar_path,
    )

    started = time.perf_counter()
    k, slack = _resolve_query(k, slack)
    file_annotations: dict = {}
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".bench" and path.exists():
            file_annotations.update(
                parse_delay_annotations(path.read_text(), source=str(path))
            )
            sidecar = sidecar_path(path)
            if sidecar.exists():
                file_annotations.update(parse_delays_file(sidecar))
    core = load(source, scan=scan).as_core()
    if delays is None:
        merged = dict(file_annotations)
        merged.update(annotations or {})
        delays = materialize_delays(core, merged, seed=seed, base=base)
    elif delays.circuit is not core:
        raise ValueError("delay assignment belongs to a different circuit")
    return _Query(k, slack, core, delays, domain_circuits(core), started)


def _query_report(
    query: _Query, row_lists: list, counters: dict, sources: dict
) -> SignoffReport:
    """Merge the per-domain row lists into the query's report."""
    return SignoffReport(
        circuit=query.core.name,
        mode="k" if query.k is not None else "slack",
        k=query.k,
        slack=query.slack,
        delays_digest=delays_digest(query.delays),
        domains=tuple(sorted(capture for capture, _c, _m in query.domains)),
        rows=merge_rows(row_lists, query.k),
        counters=counters,
        sources=sources,
        wall_seconds=time.perf_counter() - query.started,
    )


# -- the public query --------------------------------------------------
def signoff(
    source,
    *,
    k: "int | None" = None,
    slack: "float | None" = None,
    scan: "bool | None" = None,
    delays: "DelayAssignment | None" = None,
    annotations: "dict | None" = None,
    seed: int = 0,
    base: str = "random",
    store=None,
    runner: "TaskRunner | None" = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_states: int = DEFAULT_MAX_STATES,
) -> SignoffReport:
    """K-longest / above-slack robustly-testable paths of ``source``.

    ``source`` is anything :func:`repro.loading.load` resolves; a
    ``.bench`` path additionally contributes its embedded ``# delay:``
    annotations and a ``<stem>.delays`` sidecar (sidecar wins).  Each
    capture domain runs as an independent, store-cached job — fanned
    out by ``runner`` (default: an in-process ``TaskRunner()``) — and
    the merged table is byte-identical at any job count, matching a
    whole-core run of :func:`signoff_core`.
    """
    query = _prepare_query(
        source, k, slack, scan, delays, annotations, seed, base
    )
    payloads = []
    for _capture, cone, map_delays in query.domains:
        cone_delays = map_delays(query.delays)
        payloads.append(
            (cone, cone_delays.rise, cone_delays.fall, query.k, query.slack,
             store, max_candidates, max_states)
        )
    core = query.core
    labels = [
        f"{core.name}:signoff[{capture}]" for capture, _c, _m in query.domains
    ]
    if runner is None:
        runner = TaskRunner()
    registry = get_registry()
    registry.counter("signoff.requests").inc()
    registry.counter("signoff.domains").inc(len(query.domains))
    with span(
        "signoff.query", circuit=core.name, mode="k" if query.k else "slack"
    ):
        outcomes = runner.map(_domain_task, payloads, labels=labels)
    counters = _zero_counters()
    sources: dict = {}
    row_lists = []
    for (capture, _cone, _map), outcome in zip(query.domains, outcomes):
        if isinstance(outcome, RowFailure):
            raise SignoffError(
                f"signoff domain {outcome.label} failed "
                f"({outcome.kind}): {outcome.message}"
            )
        rows, domain_counters, domain_source = outcome
        row_lists.append(rows)
        sources[capture] = domain_source
        for name in _STAGE_COUNTERS:
            counters[name] += domain_counters[name]
    return _query_report(query, row_lists, counters, sources)


__all__ = [
    "DEFAULT_K",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_STATES",
    "domain_circuits",
    "row_from_path",
    "signoff",
    "signoff_core",
    "signoff_variant",
]
