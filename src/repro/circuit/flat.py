"""Flat struct-of-arrays circuit IR.

:class:`repro.circuit.netlist.Circuit` stores the netlist as an object
graph — per-gate tuples, :class:`~repro.circuit.netlist.Lead` NamedTuples,
dict lookups.  That representation is convenient to build and inspect but
slow to traverse: the classification engine walks millions of edges and the
fingerprint/path-count layers re-derive the same adjacency over and over.

:class:`FlatCircuit` is the shared traversal form.  It is built once per
circuit (``circuit.flat``, cached) and holds nothing but parallel integer
arrays and word-wide bitmasks:

``type_code[g]``
    the :class:`~repro.circuit.gates.GateType` value of gate ``g`` (the
    *true* gate type — fingerprinting needs NAND vs AND, not just the
    engine's coarser kind).
``kind[g]``
    the engine kind (:data:`K_PO`/:data:`K_WIRE`/:data:`K_NOT`/
    :data:`K_SIMPLE`/:data:`K_PI`) plus ``ctrl``/``nc``/``out_ctrl``/
    ``out_nc`` logic tables for simple gates.
``fanin_start``/``fanin_gates``
    CSR fanin adjacency.  Because lead indices are assigned grouped by
    destination gate and ordered by pin, ``fanin_start`` doubles as the
    lead base table: lead ``l`` feeds pin ``l - fanin_start[lead_dst[l]]``
    of ``lead_dst[l]`` from source ``fanin_gates[l]``.
``fanout_start``/``fanout_dst``/``fanout_lead``
    CSR fanout adjacency in ``Circuit.fanout`` order (ascending
    destination, then pin) — DFS enumeration order depends on it.
``fanin_mask[g]`` / ``fanout_gates[g]``
    per-gate fanin bitset (bit ``s`` set iff gate ``s`` feeds ``g``) and
    the deduplicated, sorted fanout gate tuple.

Gate ids are also bit positions: a set of gates is a Python ``int`` with
bit ``g`` set, so set algebra over ``num_gates`` gates costs
``ceil(num_gates / 64)`` machine words per operation.  On top of that the
lazy :attr:`FlatCircuit.closures` precomputes, for every *literal*
``L = 2 * gate + value``, the transitive closure of the unconditional
implication rules as a pair of bitmasks — see :class:`LiteralClosures`.
"""

from __future__ import annotations

import time
from array import array
from typing import TYPE_CHECKING

from repro.circuit.gates import GateType, controlling_value, gate_output_for_oneshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.netlist import Circuit

__all__ = [
    "FlatCircuit",
    "LiteralClosures",
    "K_PO",
    "K_WIRE",
    "K_NOT",
    "K_SIMPLE",
    "K_PI",
]

#: Engine gate kinds.  A *wire* (BUF or PI) forwards its value, NOT inverts
#: it, *simple* gates have a controlling value, POs accept paths.
K_PO, K_WIRE, K_NOT, K_SIMPLE, K_PI = 0, 1, 2, 3, 4

_KIND_OF_TYPE = {
    GateType.PI: K_PI,
    GateType.PO: K_PO,
    GateType.BUF: K_WIRE,
    GateType.NOT: K_NOT,
    GateType.AND: K_SIMPLE,
    GateType.OR: K_SIMPLE,
    GateType.NAND: K_SIMPLE,
    GateType.NOR: K_SIMPLE,
}


class LiteralClosures:
    """Static implication closures over literals ``L = 2 * gate + value``.

    ``lit_ones[L]`` / ``lit_zeros[L]`` are the gate bitmasks forced to 1 /
    0 once literal ``L`` holds, under the *unconditional* implication rules
    of the paper's Algorithm 2 (wire/NOT propagation both directions,
    controlling input forces the output, non-controlled output forces all
    inputs non-controlling).  They include ``L`` itself and are computed by
    one Tarjan SCC pass over the literal implication graph, so cyclic
    (reconvergent) rule chains collapse to a shared closure.

    The *conditional* rules — "last free input of a controlled gate must be
    controlling" and "all inputs non-controlling force the output" — cannot
    be closed statically; they are re-checked at runtime via a candidate
    worklist seeded from ``c1``/``c0``:

    ``c1[g]`` / ``c0[g]``
        bitmask of gates whose conditional rule may newly fire when bit
        ``g`` is assigned 1 / 0 (value-filtered: only assignments that can
        actually enable the rule enqueue the gate).
    ``I1`` / ``I0``
        union filters — bits with a nonzero ``c1`` / ``c0`` contribution.

    ``lit_no``/``lit_nz`` are the precomputed complements ``~lit_ones`` /
    ``~lit_zeros`` and ``lit_bad[L]`` flags self-contradictory closures
    (``lit_ones[L] & lit_zeros[L] != 0`` — assuming ``L`` is immediately
    absurd).
    """

    __slots__ = (
        "lit_ones",
        "lit_zeros",
        "lit_no",
        "lit_nz",
        "lit_bad",
        "c1",
        "c0",
        "I1",
        "I0",
        "build_s",
    )

    def __init__(self, flat: "FlatCircuit") -> None:
        t0 = time.perf_counter()
        n = flat.num_gates
        kind = flat.kind
        ctrl = flat.ctrl
        nc = flat.nc
        out_ctrl = flat.out_ctrl
        out_nc = flat.out_nc
        fanin_start = flat.fanin_start
        fanin_gates = flat.fanin_gates
        fanout_gates = flat.fanout_gates

        # --- conditional-rule candidate contributions --------------------
        simple2 = [
            kind[g] == K_SIMPLE and fanin_start[g + 1] - fanin_start[g] >= 2
            for g in range(n)
        ]
        c1 = [0] * n
        c0 = [0] * n
        for g in range(n):
            if simple2[g]:
                # output assigned to out_ctrl enables the last-input rule
                if out_ctrl[g] == 1:
                    c1[g] |= 1 << g
                else:
                    c0[g] |= 1 << g
            for h in fanout_gates[g]:
                if simple2[h]:
                    # an input moving to nc[h] brings h closer to firing
                    if nc[h] == 1:
                        c1[g] |= 1 << h
                    else:
                        c0[g] |= 1 << h
        self.c1 = c1
        self.c0 = c0
        I1 = 0
        I0 = 0
        for g in range(n):
            if c1[g]:
                I1 |= 1 << g
            if c0[g]:
                I0 |= 1 << g
        self.I1 = I1
        self.I0 = I0

        # --- unconditional closure per literal, via Tarjan SCC -----------
        NL = 2 * n
        lit_ones = [0] * NL
        lit_zeros = [0] * NL

        def succs(L: int) -> list[int]:
            """Literals directly implied by ``L`` (unconditional rules)."""
            g, v = L >> 1, L & 1
            out = []
            for h in fanout_gates[g]:
                k = kind[h]
                if k == K_WIRE or k == K_PO:
                    out.append(2 * h + v)
                elif k == K_NOT:
                    out.append(2 * h + 1 - v)
                elif k == K_SIMPLE:
                    if v == ctrl[h]:
                        out.append(2 * h + out_ctrl[h])
                    elif fanin_start[h + 1] - fanin_start[h] == 1:
                        out.append(2 * h + out_nc[h])
            k = kind[g]
            lo = fanin_start[g]
            hi = fanin_start[g + 1]
            if k == K_WIRE or k == K_PO:
                out.append(2 * fanin_gates[lo] + v)
            elif k == K_NOT:
                out.append(2 * fanin_gates[lo] + (1 - v))
            elif k == K_SIMPLE:
                if v == out_nc[g]:
                    ncv = nc[g]
                    for i in range(lo, hi):
                        out.append(2 * fanin_gates[i] + ncv)
                elif hi - lo == 1:
                    out.append(2 * fanin_gates[lo] + ctrl[g])
            return out

        index = [-1] * NL
        low = [0] * NL
        on_stack = [False] * NL
        stack: list[int] = []
        counter = 0
        for root in range(NL):
            if index[root] != -1:
                continue
            work = [(root, iter(succs(root)))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if index[w] == -1:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(succs(w))))
                        advanced = True
                        break
                    elif on_stack[w]:
                        if index[w] < low[v]:
                            low[v] = index[w]
                if advanced:
                    continue
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.append(w)
                        if w == v:
                            break
                    o = z = 0
                    for L in scc:
                        g2, val = L >> 1, L & 1
                        if val:
                            o |= 1 << g2
                        else:
                            z |= 1 << g2
                    in_scc = set(scc)
                    for L in scc:
                        for s in succs(L):
                            if s not in in_scc:
                                o |= lit_ones[s]
                                z |= lit_zeros[s]
                    for L in scc:
                        lit_ones[L] = o
                        lit_zeros[L] = z
        self.lit_ones = lit_ones
        self.lit_zeros = lit_zeros
        self.lit_no = [~m for m in lit_ones]
        self.lit_nz = [~m for m in lit_zeros]
        self.lit_bad = [bool(lit_ones[L] & lit_zeros[L]) for L in range(NL)]
        self.build_s = time.perf_counter() - t0


class FlatCircuit:
    """Struct-of-arrays form of a frozen :class:`Circuit` (see module doc).

    Built via ``circuit.flat`` (cached per circuit); do not mutate.
    """

    __slots__ = (
        "name",
        "num_gates",
        "num_leads",
        "type_code",
        "kind",
        "ctrl",
        "nc",
        "out_ctrl",
        "out_nc",
        "fanin_start",
        "fanin_gates",
        "lead_dst",
        "lead_pin",
        "fanout_start",
        "fanout_dst",
        "fanout_lead",
        "inputs",
        "outputs",
        "topo",
        "fanin_mask",
        "fanout_gates",
        "build_s",
        "_closures",
    )

    def __init__(self, circuit: "Circuit") -> None:
        t0 = time.perf_counter()
        n = circuit.num_gates
        self.name = circuit.name
        self.num_gates = n
        self.num_leads = circuit.num_leads
        type_code = array("b", bytes(n))
        kind = array("b", bytes(n))
        ctrl = array("b", bytes(n))
        nc = array("b", bytes(n))
        out_ctrl = array("b", bytes(n))
        out_nc = array("b", bytes(n))
        for g in range(n):
            t = circuit.gate_type(g)
            type_code[g] = t
            k = _KIND_OF_TYPE[t]
            kind[g] = k
            if k == K_SIMPLE:
                ctrl[g] = controlling_value(t)
                nc[g] = 1 - ctrl[g]
                out_ctrl[g] = gate_output_for_oneshot(t, True)
                out_nc[g] = gate_output_for_oneshot(t, False)
        self.type_code = type_code
        self.kind = kind
        self.ctrl = ctrl
        self.nc = nc
        self.out_ctrl = out_ctrl
        self.out_nc = out_nc

        # fanin CSR == lead table (leads are (dst, pin)-ordered)
        fanin_start = array("q", bytes(8 * (n + 1)))
        fanin_gates = array("q")
        lead_dst = array("q")
        lead_pin = array("q")
        fanin_mask = [0] * n
        for g in range(n):
            srcs = circuit.fanin(g)
            fanin_start[g + 1] = fanin_start[g] + len(srcs)
            fanin_gates.extend(srcs)
            m = 0
            for pin, s in enumerate(srcs):
                lead_dst.append(g)
                lead_pin.append(pin)
                m |= 1 << s
            fanin_mask[g] = m
        self.fanin_start = fanin_start
        self.fanin_gates = fanin_gates
        self.lead_dst = lead_dst
        self.lead_pin = lead_pin
        self.fanin_mask = fanin_mask

        # fanout CSR in Circuit.fanout order (DFS order depends on it)
        fanout_start = array("q", bytes(8 * (n + 1)))
        fanout_dst = array("q")
        fanout_lead = array("q")
        fanout_gates = []
        for g in range(n):
            branches = circuit.fanout(g)
            fanout_start[g + 1] = fanout_start[g] + len(branches)
            for dst, pin in branches:
                fanout_dst.append(dst)
                fanout_lead.append(circuit.lead_index(dst, pin))
            fanout_gates.append(tuple(sorted({d for d, _p in branches})))
        self.fanout_start = fanout_start
        self.fanout_dst = fanout_dst
        self.fanout_lead = fanout_lead
        self.fanout_gates = fanout_gates

        self.inputs = array("q", circuit.inputs)
        self.outputs = array("q", circuit.outputs)
        self.topo = array("q", circuit.topo_order)
        self._closures: LiteralClosures | None = None
        self.build_s = time.perf_counter() - t0

    # -- derived views ----------------------------------------------------

    @property
    def closures(self) -> LiteralClosures:
        """Literal implication closures (built lazily, cached)."""
        clo = self._closures
        if clo is None:
            clo = self._closures = LiteralClosures(self)
        return clo

    @property
    def bitset_words(self) -> int:
        """64-bit words per gate bitset (one bit per gate)."""
        return (self.num_gates + 63) >> 6

    def fanin_count(self, g: int) -> int:
        return self.fanin_start[g + 1] - self.fanin_start[g]

    def fanin_of(self, g: int) -> tuple[int, ...]:
        return tuple(self.fanin_gates[self.fanin_start[g] : self.fanin_start[g + 1]])

    def fanout_of(self, g: int) -> tuple[tuple[int, int], ...]:
        """Fanout branches of ``g`` as ``(lead, dst)`` pairs, DFS order."""
        lo = self.fanout_start[g]
        hi = self.fanout_start[g + 1]
        return tuple(
            (self.fanout_lead[i], self.fanout_dst[i]) for i in range(lo, hi)
        )

    def lead_src(self, lead: int) -> int:
        """Source gate of ``lead`` (the fanin CSR is the lead table)."""
        return self.fanin_gates[lead]

    def gate_type_histogram(self) -> dict[str, int]:
        """Gate counts keyed by :class:`GateType` name, fixed member order."""
        counts = [0] * len(GateType)
        for code in self.type_code:
            counts[code] += 1
        return {t.name: counts[t.value] for t in GateType if counts[t.value]}

    def ir_stats(self) -> dict[str, object]:
        """Summary payload for ``repro-rd info`` and diagnostics."""
        stats: dict[str, object] = {
            "gates": self.num_gates,
            "leads": self.num_leads,
            "bitset_words": self.bitset_words,
            "gate_types": self.gate_type_histogram(),
            "build_s": self.build_s,
        }
        if self._closures is not None:
            stats["closure_build_s"] = self._closures.build_s
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatCircuit({self.name!r}, gates={self.num_gates}, "
            f"leads={self.num_leads}, words={self.bitset_words})"
        )
