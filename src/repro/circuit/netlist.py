"""The combinational netlist data structure.

A :class:`Circuit` is a DAG of gates.  Following the paper's model
(Section II), the edges of the DAG are *leads*: a lead connects the output
pin of a gate to exactly one input pin of a successor gate, so a fanout
stem of degree *k* contributes *k* distinct leads.  Leads are first-class
(they carry dense integer ids) because every algorithm in the paper —
path counting, input sorts, side-input conditions — is formulated on
leads, not on nets.

Construction is mutable (``add_gate``); calling :meth:`Circuit.freeze`
validates the structure, assigns lead ids, and computes fanout lists,
topological order and levels.  All analysis code requires a frozen
circuit.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.circuit.gates import GateType
from repro.errors import CircuitError

__all__ = ["Circuit", "CircuitError", "Lead"]


class Lead(NamedTuple):
    """A wire from the output pin of ``src`` to input pin ``pin`` of ``dst``."""

    index: int
    src: int
    dst: int
    pin: int


class Circuit:
    """A combinational circuit of simple gates, PIs and POs.

    Gates are referred to by dense integer ids in insertion order.  PO
    gates have exactly one fanin and no fanout; PI gates have no fanin.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._types: list[GateType] = []
        self._names: list[str] = []
        self._fanin: list[tuple[int, ...]] = []
        self._by_name: dict[str, int] = {}
        self._frozen = False
        # Populated by freeze():
        self._fanout: list[tuple[tuple[int, int], ...]] = []
        self._inputs: tuple[int, ...] = ()
        self._outputs: tuple[int, ...] = ()
        self._topo: tuple[int, ...] = ()
        self._level: tuple[int, ...] = ()
        self._lead_base: list[int] = []
        self._lead_src: list[int] = []
        self._lead_dst: list[int] = []
        self._lead_pin: list[int] = []
        self._flat = None
        self._cone_index = None  # repro.incremental.conefp cache slot
        self._sensitization = None  # repro.verdict.encode cache slot

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_gate(
        self,
        gate_type: GateType,
        name: str | None = None,
        fanin: Sequence[int] = (),
    ) -> int:
        """Add a gate and return its id.

        ``fanin`` lists the *source gate ids* in pin order; the order is
        significant (it is the default input sort of the gate).
        """
        if self._frozen:
            raise CircuitError("circuit is frozen; no more gates may be added")
        gid = len(self._types)
        for src in fanin:
            if not 0 <= src < gid:
                raise CircuitError(
                    f"gate {name or gid}: fanin id {src} does not refer to an "
                    "already-added gate (circuits are built in topological order)"
                )
        if gate_type is GateType.PI:
            if fanin:
                raise CircuitError("a PI cannot have fanin")
        elif gate_type in (GateType.PO, GateType.NOT, GateType.BUF):
            if len(fanin) != 1:
                raise CircuitError(f"{gate_type.name} requires exactly one fanin")
        else:
            if len(fanin) < 1:
                raise CircuitError(f"{gate_type.name} requires at least one fanin")
        if name is None:
            name = f"{gate_type.name.lower()}{gid}"
        if name in self._by_name:
            raise CircuitError(f"duplicate gate name {name!r}")
        self._types.append(gate_type)
        self._names.append(name)
        self._fanin.append(tuple(fanin))
        self._by_name[name] = gid
        return gid

    def replace_gate(
        self,
        name: str,
        gate_type: GateType,
        fanin: Sequence[int | str] = (),
    ) -> int:
        """Rewire one existing gate in place (an ECO edit) and return its id.

        ``fanin`` entries may be gate ids or gate names; the gate keeps
        its name and id.  The same structural rules as :meth:`add_gate`
        apply — in particular every fanin id must be smaller than the
        gate's own id, because insertion order is the circuit's
        topological order.  A gate cannot change to or from ``PI``/``PO``
        status (that would change the circuit's interface, not edit it).

        On a frozen circuit the derived structure (fanout, leads, levels,
        the cached flat IR, cone index and sensitization encoder) is
        rebuilt; the edit is transactional — an invalid replacement
        raises :class:`CircuitError` and leaves the circuit unchanged.
        """
        if name not in self._by_name:
            raise CircuitError(f"no gate named {name!r}")
        gid = self._by_name[name]
        old_type, old_fanin = self._types[gid], self._fanin[gid]
        resolved = tuple(
            self._by_name[src] if isinstance(src, str) else src for src in fanin
        )
        for src in resolved:
            if not 0 <= src < gid:
                raise CircuitError(
                    f"gate {name!r}: fanin id {src} must refer to an earlier "
                    "gate (circuits are kept in topological order)"
                )
        if (gate_type is GateType.PI) != (old_type is GateType.PI) or (
            gate_type is GateType.PO
        ) != (old_type is GateType.PO):
            raise CircuitError(
                f"gate {name!r}: replace_gate cannot change PI/PO status"
            )
        if gate_type is GateType.PI:
            if resolved:
                raise CircuitError("a PI cannot have fanin")
        elif gate_type in (GateType.PO, GateType.NOT, GateType.BUF):
            if len(resolved) != 1:
                raise CircuitError(f"{gate_type.name} requires exactly one fanin")
        elif len(resolved) < 1:
            raise CircuitError(f"{gate_type.name} requires at least one fanin")
        was_frozen = self._frozen
        self._types[gid] = gate_type
        self._fanin[gid] = resolved
        if was_frozen:
            self._frozen = False
            self._flat = None
            self._cone_index = None
            self._sensitization = None
            try:
                self.freeze()
            except CircuitError:
                self._types[gid], self._fanin[gid] = old_type, old_fanin
                self._frozen = False
                self.freeze()
                raise
        return gid

    def freeze(self) -> "Circuit":
        """Validate and index the circuit.  Returns ``self`` for chaining."""
        if self._frozen:
            return self
        n = len(self._types)
        if n == 0:
            raise CircuitError("circuit has no gates")
        fanout: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for dst in range(n):
            for pin, src in enumerate(self._fanin[dst]):
                fanout[src].append((dst, pin))
        inputs = []
        outputs = []
        for gid in range(n):
            gtype = self._types[gid]
            if gtype is GateType.PI:
                inputs.append(gid)
            elif gtype is GateType.PO:
                outputs.append(gid)
                if fanout[gid]:
                    raise CircuitError(
                        f"PO {self._names[gid]!r} must not drive other gates"
                    )
        if not inputs:
            raise CircuitError("circuit has no primary inputs")
        if not outputs:
            raise CircuitError("circuit has no primary outputs")
        self._fanout = [tuple(f) for f in fanout]
        self._inputs = tuple(inputs)
        self._outputs = tuple(outputs)
        # Gates were added in topological order (enforced by add_gate), so
        # insertion order *is* a topological order.
        self._topo = tuple(range(n))
        level = [0] * n
        for gid in range(n):
            if self._fanin[gid]:
                level[gid] = 1 + max(level[src] for src in self._fanin[gid])
        self._level = tuple(level)
        # Lead ids: dense, grouped by destination gate, ordered by pin.
        self._lead_base = [0] * (n + 1)
        for gid in range(n):
            self._lead_base[gid + 1] = self._lead_base[gid] + len(self._fanin[gid])
        num_leads = self._lead_base[n]
        self._lead_src = [0] * num_leads
        self._lead_dst = [0] * num_leads
        self._lead_pin = [0] * num_leads
        for dst in range(n):
            base = self._lead_base[dst]
            for pin, src in enumerate(self._fanin[dst]):
                self._lead_src[base + pin] = src
                self._lead_dst[base + pin] = dst
                self._lead_pin[base + pin] = pin
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def flat(self):
        """The flat struct-of-arrays IR of this circuit, built once and
        cached (:class:`repro.circuit.flat.FlatCircuit`)."""
        self._require_frozen()
        flat = self._flat
        if flat is None:
            from repro.circuit.flat import FlatCircuit

            flat = self._flat = FlatCircuit(self)
        return flat

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle as the flat construction arrays, not the object graph.

        Process-pool payloads ship circuits to workers constantly; sending
        only ``(types, names, fanin)`` and re-freezing on the receiving
        side is both smaller and faster than serialising the derived
        fanout/lead/flat structures, which each worker can rebuild in
        microseconds.
        """
        return {
            "name": self.name,
            "types": bytes(self._types),
            "names": tuple(self._names),
            "fanin": tuple(self._fanin),
            "frozen": self._frozen,
        }

    def __setstate__(self, state: dict) -> None:
        Circuit.__init__(self, state["name"])
        self._types = [GateType(b) for b in state["types"]]
        self._names = list(state["names"])
        self._fanin = [tuple(f) for f in state["fanin"]]
        self._by_name = {nm: gid for gid, nm in enumerate(self._names)}
        if state["frozen"]:
            self.freeze()

    @property
    def num_gates(self) -> int:
        return len(self._types)

    @property
    def num_leads(self) -> int:
        self._require_frozen()
        return self._lead_base[-1]

    @property
    def inputs(self) -> tuple[int, ...]:
        self._require_frozen()
        return self._inputs

    @property
    def outputs(self) -> tuple[int, ...]:
        self._require_frozen()
        return self._outputs

    @property
    def topo_order(self) -> tuple[int, ...]:
        self._require_frozen()
        return self._topo

    def gate_type(self, gid: int) -> GateType:
        return self._types[gid]

    def gate_name(self, gid: int) -> str:
        return self._names[gid]

    def gate_by_name(self, name: str) -> int:
        return self._by_name[name]

    def fanin(self, gid: int) -> tuple[int, ...]:
        return self._fanin[gid]

    def fanout(self, gid: int) -> tuple[tuple[int, int], ...]:
        """Fanout branches of gate ``gid`` as ``(dst_gate, dst_pin)`` pairs."""
        self._require_frozen()
        return self._fanout[gid]

    def level(self, gid: int) -> int:
        self._require_frozen()
        return self._level[gid]

    # -- leads ----------------------------------------------------------
    def lead_index(self, dst: int, pin: int) -> int:
        """Dense id of the lead entering pin ``pin`` of gate ``dst``."""
        self._require_frozen()
        if not 0 <= pin < len(self._fanin[dst]):
            raise IndexError(f"gate {dst} has no input pin {pin}")
        return self._lead_base[dst] + pin

    def lead(self, index: int) -> Lead:
        self._require_frozen()
        return Lead(
            index, self._lead_src[index], self._lead_dst[index], self._lead_pin[index]
        )

    def lead_src(self, index: int) -> int:
        return self._lead_src[index]

    def lead_dst(self, index: int) -> int:
        return self._lead_dst[index]

    def lead_pin(self, index: int) -> int:
        return self._lead_pin[index]

    def leads(self) -> Iterator[Lead]:
        """Iterate over all leads of the circuit."""
        self._require_frozen()
        for i in range(self.num_leads):
            yield self.lead(i)

    def input_leads(self, gid: int) -> range:
        """Lead ids entering gate ``gid``, in pin order."""
        self._require_frozen()
        return range(self._lead_base[gid], self._lead_base[gid + 1])

    def lead_name(self, index: int) -> str:
        """Human-readable ``src->dst.pin`` label for error messages/reports."""
        lead = self.lead(index)
        return f"{self._names[lead.src]}->{self._names[lead.dst]}.{lead.pin}"

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def gates_of_type(self, gate_type: GateType) -> list[int]:
        return [g for g, t in enumerate(self._types) if t is gate_type]

    def cone_of(self, po: int) -> set[int]:
        """All gate ids in the transitive fanin of ``po`` (inclusive)."""
        self._require_frozen()
        seen = {po}
        stack = [po]
        while stack:
            gid = stack.pop()
            for src in self._fanin[gid]:
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return seen

    def reachable_pos(self, gid: int) -> set[int]:
        """All POs in the transitive fanout of gate ``gid``."""
        self._require_frozen()
        seen = {gid}
        stack = [gid]
        pos = set()
        while stack:
            g = stack.pop()
            if self._types[g] is GateType.PO:
                pos.add(g)
            for dst, _pin in self._fanout[g]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return pos

    def is_simple(self) -> bool:
        """True if the circuit contains only the paper's gate repertoire."""
        return all(t in GateType.__members__.values() for t in self._types)

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"Circuit({self.name!r}, gates={self.num_gates}, "
            f"inputs={len(self._inputs)}, outputs={len(self._outputs)}, {state})"
        )

    def _require_frozen(self) -> None:
        if not self._frozen:
            raise CircuitError("circuit must be frozen before analysis")

    def as_core(self) -> "Circuit":
        """The combinational circuit the analyses run on — itself.

        Part of the loading protocol (:mod:`repro.loading`): every
        analysis surface calls ``as_core()`` on whatever it was handed,
        so a :class:`Circuit` and a scan-expanded sequential design
        (``ScanCircuit.as_core()`` → its core) are interchangeable."""
        return self

    # ------------------------------------------------------------------
    # Copying / subcircuits
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        """A structural deep copy (returned frozen if self is frozen)."""
        out = Circuit(name or self.name)
        for gid in range(self.num_gates):
            out.add_gate(self._types[gid], self._names[gid], self._fanin[gid])
        if self._frozen:
            out.freeze()
        return out

    def extract_cone(self, po: int, name: str | None = None) -> tuple["Circuit", dict[int, int]]:
        """Extract the single-output subcircuit feeding PO ``po``.

        Returns the new circuit plus a mapping from old gate ids to new
        gate ids.  The paper applies its (single-output) theory to each
        output cone separately; this is the supporting transform.
        """
        self._require_frozen()
        if self._types[po] is not GateType.PO:
            raise CircuitError(f"gate {po} is not a PO")
        cone = self.cone_of(po)
        mapping: dict[int, int] = {}
        out = Circuit(name or f"{self.name}.{self._names[po]}")
        for gid in range(self.num_gates):
            if gid not in cone:
                continue
            new_fanin = tuple(mapping[s] for s in self._fanin[gid])
            mapping[gid] = out.add_gate(self._types[gid], self._names[gid], new_fanin)
        out.freeze()
        return out, mapping


def circuit_from_spec(
    name: str,
    spec: Iterable[tuple[str, GateType, Sequence[str]]],
) -> Circuit:
    """Build a circuit from ``(name, type, fanin-names)`` triples.

    The triples may appear in any order; this helper topologically sorts
    them, which is convenient for parsers and tests.
    """
    items = list(spec)
    fanin_names = {nm: tuple(fi) for nm, _t, fi in items}
    types = {nm: t for nm, t, _fi in items}
    if len(types) != len(items):
        raise CircuitError("duplicate gate names in spec")
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(nm: str, chain: tuple[str, ...]) -> None:
        st = state.get(nm, 0)
        if st == 2:
            return
        if st == 1:
            raise CircuitError(f"combinational cycle through {nm!r}: {chain}")
        if nm not in types:
            raise CircuitError(f"gate {nm!r} referenced but never defined")
        state[nm] = 1
        for src in fanin_names[nm]:
            visit(src, chain + (nm,))
        state[nm] = 2
        order.append(nm)

    for nm, _t, _fi in items:
        visit(nm, ())
    circuit = Circuit(name)
    ids: dict[str, int] = {}
    for nm in order:
        ids[nm] = circuit.add_gate(types[nm], nm, [ids[s] for s in fanin_names[nm]])
    return circuit.freeze()
