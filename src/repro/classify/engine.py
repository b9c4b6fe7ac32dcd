"""Algorithm 2: implicit path enumeration with word-parallel implications.

All logical paths are enumerated implicitly by a DFS that extends path
segments from each PI towards the POs.  At every extension the criterion's
side-input conditions are injected; a contradiction prunes the segment
*and all its extensions* (the prime segment concept, footnote 3 of the
paper).  A path that reaches a PO without contradiction is counted into
``LP^sup``.

Because only local (direct) implications are performed, the check is
one-sided: accepted paths may in truth be unsatisfiable (hence the
superset), but every rejected path is certainly not in the criterion set
— the reported RD-set is sound.

The enumeration core runs over the flat IR (:mod:`repro.circuit.flat`)
with set-of-gates state packed into word-wide bitmasks:

* The DFS state is two integers ``ones`` / ``zeros`` — bit ``g`` set iff
  gate ``g`` is assigned 1 / 0 — plus their maintained complements
  ``no`` / ``nz``, so "which of these bits are new" and "does this
  conflict" are single ``&`` expressions over ``ceil(n / 64)`` words.
* The transitive closure of Algorithm 2's *unconditional* implication
  rules is precomputed per literal (:class:`repro.circuit.flat.
  LiteralClosures`), so injecting a side condition ORs one precomputed
  mask pair instead of propagating gate by gate.  Only the two
  *conditional* rules (last-free-input, all-inputs-non-controlling) need
  a runtime worklist, seeded through value-filtered candidate masks.
* Per-lead conditions are folded at table-build time
  (:class:`_Tables`): one ``(ones, zeros)`` mask pair per (lead, on-path
  value), derived from :func:`repro.classify.conditions.
  packed_side_conditions` — the bitset twin of ``required_side_pins``.
* Implication rules are monotone and confluent, so the settled state
  after an extension is a pure function of the entry's mask pair and
  the state it extends.  A memo keyed on ``(pair id, ones, zeros)``
  short-circuits the worklist for states revisited across sibling
  subtrees, which dominates on reconvergent circuits.  Pair ids are
  interned in a caller-owned dict, so entries of different tables with
  equal masks share an id; a :class:`~repro.classify.session.
  CircuitSession` owns one id dict and one memo for all its passes
  (Heuristic 2's FS, NR and σ^π passes settle mostly the same states),
  while a sessionless call passes fresh ones.  A memo value is the
  settled ``(ones, zeros)`` (the complements are rebuilt with ``~``),
  the shared :data:`_PLAIN` when settling assigned nothing beyond the
  entry's own masks, or ``None`` for a contradiction; an immediate
  conflict is tested before the lookup and never stored.

There is one DFS kernel (:func:`_dfs`) for every pass.  It keeps
explicit iterator/state stacks, so arbitrarily deep circuits are handled
without recursion, plus a stack of the entries on the current path.
Algorithm 3's per-lead counts fall out of that stack at O(1) per frame:
pushing a controlling entry subtracts the running accepted count from
its lead, popping it adds the count back, so each lead is credited with
exactly the accepted paths of its subtree.  The same stack rebuilds an
accepted path for ``on_path``.  Enumeration order, edge counts,
accept/prune decisions and lead counts are identical to the reference
trail engine (:mod:`repro.classify.reference`), which the equivalence
tests enforce.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.circuit.flat import K_NOT, K_PO, K_SIMPLE
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion, packed_side_conditions
from repro.classify.results import ClassificationResult
from repro.errors import ClassifyError
from repro.paths.count import PathCounts, count_paths
from repro.paths.path import LogicalPath, PhysicalPath
from repro.util.timer import Stopwatch

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.circuit.flat import FlatCircuit, LiteralClosures
    from repro.classify.session import CircuitSession
    from repro.sorting.input_sort import InputSort

#: Memo-table miss sentinel (``None`` is a meaningful cached value).
_MISS = object()
#: Memo value of a settle that assigned nothing beyond the entry's own
#: masks: a hit ORs them back in, so the common case stores no ints.
_PLAIN = object()
#: Depth-0 entry of the kernel's path stack: never controlling, so the
#: root frame's pop credits no lead.
_ROOT = [0, 0, (), -1, -1, False, -1, -1, 0]
#: An entry's lead (slot 6), for rebuilding a path from the entry stack.
_lead_of = itemgetter(6)


class _Tables:
    """Static per-(circuit, criterion, sort) tables for the bitset kernel.

    ``branches[2 * g + v]`` is a tuple with one *entry* per fanout branch
    of gate ``g`` when its output carries value ``v``:

    ``None``
        statically dead — the branch's condition closure is
        self-contradictory, every visit prunes;
    a 1-tuple ``(lead,)``
        the branch enters a PO through ``lead`` — every visit accepts;
    otherwise a 9-slot list ``e`` for the branch into gate ``dst``:
        ``e[0]``/``e[1]`` closure masks to force 1 / 0 (side-input
        conditions plus the new on-path output value, all statically
        closed), ``e[2]`` the next branch tuple
        (``branches[2 * dst + newval]``), ``e[3]``/``e[4]`` the
        precomputed complements ``~e[0]``/``~e[1]``, ``e[5]`` whether the
        on-path value is ``dst``'s controlling value, ``e[6]`` the lead,
        ``e[7]`` the id of the pair ``(e[0], e[1])`` interned in ``ids``
        (the memo key; equal masks share an id across every table built
        with the same ``ids``) and ``e[8]`` the on-path value at
        ``dst``'s output.

    ``roots[2 * pi + x]`` is the settled state after assuming PI ``pi``
    carries ``x`` (``None`` if that assumption is already absurd) and
    ``tab[2 * lead + v]`` indexes the same entries by (lead, incoming
    value) for single-path walks.
    """

    def __init__(
        self,
        circuit: Circuit,
        criterion: Criterion,
        sort: InputSort | None,
        ids: dict,
    ) -> None:
        if criterion.needs_sort and sort is None:
            raise ValueError("SIGMA_PI classification requires an input sort")
        flat = circuit.flat
        clo = flat.closures
        self.flat = flat
        self.closures = clo
        n = flat.num_gates
        kind = flat.kind
        ctrl = flat.ctrl
        nc = flat.nc
        out_ctrl = flat.out_ctrl
        out_nc = flat.out_nc
        fanout_start = flat.fanout_start
        fanout_dst = flat.fanout_dst
        fanout_lead = flat.fanout_lead
        lo_ = clo.lit_ones
        lz_ = clo.lit_zeros
        all_masks, ctrl_masks = packed_side_conditions(circuit, criterion, sort)
        tab: list = [None] * (2 * flat.num_leads)
        rows: list[list] = [[] for _ in range(2 * n)]
        entries: list[list] = []
        intern = ids.setdefault
        for g in range(n):
            blo = fanout_start[g]
            bhi = fanout_start[g + 1]
            for v in (0, 1):
                out = rows[2 * g + v]
                for i in range(blo, bhi):
                    dst = fanout_dst[i]
                    lead = fanout_lead[i]
                    k = kind[dst]
                    if k == K_PO:
                        out.append((lead,))
                        tab[2 * lead + v] = (lead,)
                        continue
                    if k == K_SIMPLE:
                        is_ctrl = v == ctrl[dst]
                        mask = ctrl_masks[lead] if is_ctrl else all_masks[lead]
                        newval = out_ctrl[dst] if is_ctrl else out_nc[dst]
                        ncv = nc[dst]
                        L = 2 * dst + newval
                        o = lo_[L]
                        z = lz_[L]
                        while mask:
                            b = mask & -mask
                            mask ^= b
                            L = 2 * (b.bit_length() - 1) + ncv
                            o |= lo_[L]
                            z |= lz_[L]
                    elif k == K_NOT:
                        is_ctrl = False
                        newval = 1 - v
                        L = 2 * dst + newval
                        o = lo_[L]
                        z = lz_[L]
                    else:  # K_WIRE
                        is_ctrl = False
                        newval = v
                        L = 2 * dst + v
                        o = lo_[L]
                        z = lz_[L]
                    if o & z:
                        out.append(None)
                        continue
                    e = [
                        o,
                        z,
                        2 * dst + newval,
                        ~o,
                        ~z,
                        is_ctrl,
                        lead,
                        intern((o, z), len(ids)),
                        newval,
                    ]
                    entries.append(e)
                    out.append(e)
                    tab[2 * lead + v] = e
        branches = [tuple(row) for row in rows]
        for e in entries:
            e[2] = branches[e[2]]
        self.branches = branches
        self.tab = tab
        # Settled root state per (PI, assumed value); None = absurd.
        roots: dict[int, tuple | None] = {}
        lit_bad = clo.lit_bad
        for pi in flat.inputs:
            for v in (0, 1):
                L = 2 * pi + v
                if lit_bad[L]:
                    roots[L] = None
                    continue
                lo = lo_[L]
                lz = lz_[L]
                roots[L] = _settle(
                    flat, clo, lo, lz, clo.lit_no[L], clo.lit_nz[L], lo, lz
                )
        self.roots = roots


def _settle(
    flat: FlatCircuit,
    clo: LiteralClosures,
    ones: int,
    zeros: int,
    no: int,
    nz: int,
    n1: int,
    n0: int,
) -> tuple[int, int, int, int] | None:
    """Drain the conditional-rule worklist after bits ``n1`` / ``n0``
    were newly assigned 1 / 0.

    Returns the settled ``(ones, zeros, no, nz)`` state, or ``None`` on a
    contradiction.  The rule set is monotone, so the fixpoint is unique
    regardless of worklist order.  This out-of-line version serves root
    states and single-path walks; the DFS kernel (:func:`_dfs`) inlines
    the same loop.
    """
    ctrl = flat.ctrl
    out_ctrl = flat.out_ctrl
    out_nc = flat.out_nc
    fanin_mask = flat.fanin_mask
    c1 = clo.c1
    c0 = clo.c0
    lit_ones = clo.lit_ones
    lit_zeros = clo.lit_zeros
    lit_no = clo.lit_no
    lit_nz = clo.lit_nz
    lit_bad = clo.lit_bad
    pending = 0
    n1 &= clo.I1
    while n1:
        b = n1 & -n1
        n1 ^= b
        pending |= c1[b.bit_length() - 1]
    n0 &= clo.I0
    while n0:
        b = n0 & -n0
        n0 ^= b
        pending |= c0[b.bit_length() - 1]
    while pending:
        b = pending & -pending
        pending ^= b
        h = b.bit_length() - 1
        fm = fanin_mask[h]
        u = fm & no & nz
        if u:
            # last-free-input rule: fires only when exactly one input is
            # unassigned, the output is already controlled and no input
            # is controlling yet
            if u & (u - 1):
                continue
            if fm & (ones if ctrl[h] else zeros):
                continue
            if not ((ones if out_ctrl[h] else zeros) >> h) & 1:
                continue
            L = 2 * (u.bit_length() - 1) + ctrl[h]
        else:
            # all inputs assigned non-controlling: output forced
            if ((ones if out_nc[h] else zeros) >> h) & 1:
                continue
            if fm & (ones if ctrl[h] else zeros):
                continue
            L = 2 * h + out_nc[h]
        if lit_bad[L]:
            return None
        lo = lit_ones[L]
        lz = lit_zeros[L]
        f1 = lo & no
        f0 = lz & nz
        if f1 or f0:
            if lo & zeros or lz & ones:
                return None
            ones |= lo
            zeros |= lz
            no &= lit_no[L]
            nz &= lit_nz[L]
            f1 &= clo.I1
            while f1:
                b2 = f1 & -f1
                f1 ^= b2
                pending |= c1[b2.bit_length() - 1]
            f0 &= clo.I0
            while f0:
                b2 = f0 & -f0
                f0 ^= b2
                pending |= c0[b2.bit_length() - 1]
    return (ones, zeros, no, nz)


def _dfs(
    tables: _Tables,
    memo: dict,
    max_accepted: int | None,
    on_path: Callable[[LogicalPath], None] | None,
) -> tuple[int, int, list[int]]:
    """Algorithm 2's DFS: returns ``(accepted, edges, lead_counts)``.

    Everything is local variables and int ops; the conditional-rule
    worklist of :func:`_settle` is inlined.  The conflict check MUST
    precede the new-bits test when merging an entry — bits that are all
    "already known" can still sit on the wrong side.  ``memo`` may come
    from earlier passes over tables built with the same ``ids`` (see
    the module docstring); it only short-circuits state computation,
    never the traversal, so the entry stack — and with it the lead
    counts and ``on_path`` — stays exact.
    """
    flat = tables.flat
    clo = tables.closures
    # array('b') indexing is measurably slower than list indexing in the
    # candidate loop; snapshot the hot tables as plain lists
    ctrl = list(flat.ctrl)
    out_ctrl = list(flat.out_ctrl)
    out_nc = list(flat.out_nc)
    fanin_mask = flat.fanin_mask
    lit_ones = clo.lit_ones
    lit_zeros = clo.lit_zeros
    lit_no = clo.lit_no
    lit_nz = clo.lit_nz
    lit_bad = clo.lit_bad
    c1 = clo.c1
    c0 = clo.c0
    I1 = clo.I1
    I0 = clo.I0
    branches = tables.branches
    roots = tables.roots
    limit = float("inf") if max_accepted is None else max_accepted
    tup = tuple  # a local is cheaper than the builtin lookup per edge
    accepted = 0
    edges = 0
    lead_counts = [0] * flat.num_leads
    maxd = flat.num_gates + 2
    it_stk: list = [None] * maxd
    st_stk: list = [None] * maxd
    ent_stk: list = [None] * maxd
    ent_stk[0] = _ROOT
    ones = zeros = 0
    no = nz = -1
    for pi in flat.inputs:
        for x in (1, 0):
            st = roots[2 * pi + x]
            if st is None:
                continue
            ones, zeros, no, nz = st
            d = 0
            it_stk[0] = iter(branches[2 * pi + x])
            st_stk[0] = None
            while d >= 0:
                e = next(it_stk[d], False)
                if e is False:
                    s = st_stk[d]
                    if s is not None:
                        ones, zeros, no, nz = s
                    p = ent_stk[d]
                    if p[5]:
                        lead_counts[p[6]] += accepted
                    d -= 1
                    continue
                edges += 1
                if e is None:
                    continue
                if e.__class__ is tup:  # (lead,) into a PO: accept
                    accepted += 1
                    if accepted > limit:
                        raise ClassifyError(
                            f"more than {max_accepted} paths accepted; "
                            "raise max_accepted or use a smaller circuit"
                        )
                    if on_path is not None:
                        leads = tuple(map(_lead_of, ent_stk[1 : d + 1])) + e
                        on_path(LogicalPath(PhysicalPath(leads), x))
                    continue
                o = e[0]
                z = e[1]
                t1 = o & no
                t0 = z & nz
                if t1 or t0:
                    if o & zeros or z & ones:
                        continue
                    kt = (e[7], ones, zeros)
                    r = memo.get(kt, _MISS)
                    if r is _MISS:
                        snap = (ones, zeros, no, nz)
                        ones |= o
                        zeros |= z
                        no &= e[3]
                        nz &= e[4]
                        pending = 0
                        t1 &= I1
                        while t1:
                            b = t1 & -t1
                            t1 ^= b
                            pending |= c1[b.bit_length() - 1]
                        t0 &= I0
                        while t0:
                            b = t0 & -t0
                            t0 ^= b
                            pending |= c0[b.bit_length() - 1]
                        ok = True
                        grew = False
                        while pending:
                            b = pending & -pending
                            pending ^= b
                            h = b.bit_length() - 1
                            fm = fanin_mask[h]
                            u = fm & no & nz
                            if u:
                                if u & (u - 1):
                                    continue
                                if fm & (ones if ctrl[h] else zeros):
                                    continue
                                if (
                                    not ((ones if out_ctrl[h] else zeros) >> h)
                                    & 1
                                ):
                                    continue
                                L = 2 * (u.bit_length() - 1) + ctrl[h]
                            else:
                                if ((ones if out_nc[h] else zeros) >> h) & 1:
                                    continue
                                if fm & (ones if ctrl[h] else zeros):
                                    continue
                                L = 2 * h + out_nc[h]
                            if lit_bad[L]:
                                ok = False
                                break
                            lo = lit_ones[L]
                            lz = lit_zeros[L]
                            f1 = lo & no
                            f0 = lz & nz
                            if f1 or f0:
                                if lo & zeros or lz & ones:
                                    ok = False
                                    break
                                ones |= lo
                                zeros |= lz
                                no &= lit_no[L]
                                nz &= lit_nz[L]
                                grew = True
                                f1 &= I1
                                while f1:
                                    b2 = f1 & -f1
                                    f1 ^= b2
                                    pending |= c1[b2.bit_length() - 1]
                                f0 &= I0
                                while f0:
                                    b2 = f0 & -f0
                                    f0 ^= b2
                                    pending |= c0[b2.bit_length() - 1]
                        if not ok:
                            memo[kt] = None
                            ones, zeros, no, nz = snap
                            continue
                        memo[kt] = (ones, zeros) if grew else _PLAIN
                        d += 1
                        st_stk[d] = snap
                    elif r is None:
                        continue
                    elif r is _PLAIN:
                        d += 1
                        st_stk[d] = (ones, zeros, no, nz)
                        ones |= o
                        zeros |= z
                        no &= e[3]
                        nz &= e[4]
                    else:
                        d += 1
                        st_stk[d] = (ones, zeros, no, nz)
                        ones, zeros = r
                        no = ~ones
                        nz = ~zeros
                else:
                    # nothing new to assign: extension trivially consistent
                    d += 1
                    st_stk[d] = None
                it_stk[d] = iter(e[2])
                ent_stk[d] = e
                if e[5]:
                    lead_counts[e[6]] -= accepted
    return accepted, edges, lead_counts


def _run(
    circuit: Circuit,
    criterion: Criterion,
    tables: _Tables,
    memo: dict,
    counts: PathCounts,
    collect_lead_counts: bool,
    max_accepted: int | None,
    on_path: Callable[[LogicalPath], None] | None,
) -> ClassificationResult:
    """The enumeration core shared by :func:`classify` and
    :class:`~repro.classify.session.CircuitSession`: run the kernel and
    wrap the result; ``collect_lead_counts`` only decides whether the
    result carries the lead counts."""
    with Stopwatch() as sw:
        accepted, edges, lead_counts = _dfs(
            tables, memo, max_accepted, on_path
        )
    return ClassificationResult(
        circuit_name=circuit.name,
        criterion=criterion,
        total_logical=counts.total_logical,
        accepted=accepted,
        elapsed=sw.elapsed,
        lead_ctrl_counts=lead_counts if collect_lead_counts else [],
        edges_visited=edges,
    )


def classify(
    circuit: Circuit,
    criterion: Criterion,
    sort: InputSort | None = None,
    collect_lead_counts: bool = False,
    max_accepted: int | None = None,
    on_path: Callable[[LogicalPath], None] | None = None,
    counts: PathCounts | None = None,
    session: CircuitSession | None = None,
) -> ClassificationResult:
    """Count ``|LP^sup|`` for ``criterion`` over all logical paths.

    Parameters
    ----------
    sort:
        the input sort π; required for ``Criterion.SIGMA_PI``, ignored
        otherwise.
    collect_lead_counts:
        also return, per lead, the number of accepted logical
        paths whose final value at the lead is the destination gate's
        controlling value (``|·_c^sup(l)|`` — the cost measures of
        Algorithm 3).  The kernel counts them on every pass at O(1) per
        DFS frame; the flag only decides whether the result (and a
        session's store row) carries them.
    max_accepted:
        abort with :class:`~repro.errors.ClassifyError` (a
        ``RuntimeError`` subclass) once more than this many paths
        are accepted (guard against accidentally enumerating a huge
        circuit; RD-heavy circuits stay cheap regardless of total path
        count thanks to prime-segment pruning).
    on_path:
        optional callback invoked with every accepted
        :class:`~repro.paths.path.LogicalPath` (slow; for debugging and
        small-circuit set extraction).
    counts:
        precomputed :func:`~repro.paths.count.count_paths` result for
        ``circuit``; pass it when the caller already has the exact
        counts to avoid recomputing them.
    session:
        a :class:`~repro.classify.session.CircuitSession` for
        ``circuit``; when given, the per-(criterion, sort) tables and
        the path counts all come from (and warm) the session's caches.

    ``circuit`` may be anything :func:`repro.loading.as_core` resolves —
    a ``ScanCircuit`` or a ``.bench`` path work as well as a ``Circuit``.
    """
    if not isinstance(circuit, Circuit):
        from repro.loading import as_core

        circuit = as_core(circuit)
    if session is not None:
        if session.circuit is not circuit:
            raise ValueError("session was created for a different circuit")
        return session.classify(
            criterion,
            sort=sort,
            collect_lead_counts=collect_lead_counts,
            max_accepted=max_accepted,
            on_path=on_path,
        )
    tables = _Tables(circuit, criterion, sort, {})
    if counts is None:
        counts = count_paths(circuit)
    return _run(
        circuit,
        criterion,
        tables,
        {},
        counts,
        collect_lead_counts,
        max_accepted,
        on_path,
    )


def check_logical_path(
    circuit: Circuit,
    criterion: Criterion,
    logical_path: LogicalPath,
    sort: InputSort | None = None,
) -> bool:
    """Local-implication check of one explicit logical path.

    Returns True if the path is in ``LP^sup`` for the criterion (i.e. the
    conditions did not contradict under direct implications); False means
    the path is provably outside the criterion set.
    """
    tables = _Tables(circuit, criterion, sort, {})
    return check_logical_path_tables(circuit, tables, logical_path)


def check_logical_path_tables(
    circuit: Circuit,
    tables: _Tables,
    logical_path: LogicalPath,
) -> bool:
    """:func:`check_logical_path` against prebuilt ``_Tables``.

    Building the condition tables dominates a single-path check; callers
    that screen many paths of one circuit (signoff, selection) should
    build the tables once — e.g. via ``session.tables(criterion, sort)``
    — and call this per path.
    """
    flat = tables.flat
    clo = tables.closures
    pi = logical_path.path.source(circuit)
    val = logical_path.final_value
    L = 2 * pi + val
    if clo.lit_bad[L]:
        return False
    lo = clo.lit_ones[L]
    lz = clo.lit_zeros[L]
    st = _settle(flat, clo, lo, lz, clo.lit_no[L], clo.lit_nz[L], lo, lz)
    if st is None:
        return False
    ones, zeros, no, nz = st
    tab = tables.tab
    for lead in logical_path.path.leads:
        e = tab[2 * lead + val]
        if e.__class__ is tuple:  # (lead,) into a PO
            return True
        if e is None:
            return False
        o = e[0]
        z = e[1]
        t1 = o & no
        t0 = z & nz
        if t1 or t0:
            if o & zeros or z & ones:
                return False
            st = _settle(
                flat, clo, ones | o, zeros | z, no & e[3], nz & e[4], t1, t0
            )
            if st is None:
                return False
            ones, zeros, no, nz = st
        val = e[8]
    raise ValueError("path does not terminate at a PO")
