"""Canonical content-addressed fingerprints for frozen circuits.

The persistent result store (:mod:`repro.store.db`) keys every cached
artifact by a *fingerprint* of the circuit it was computed on.  Two
requirements shape the design:

* **Declaration-order insensitivity.**  The same netlist read from a
  permuted ``.bench`` file (gates listed in any topological order, any
  gate names) must produce the same fingerprint, or re-runs would never
  hit the cache.  Gate *names* carry no structure, so they are ignored.
* **Pin-order sensitivity.**  The order of a gate's fanin pins is the
  circuit's default input sort (it decides ``σ^π`` for ``sort=None``
  classification and numbers the leads every per-lead artifact is
  indexed by), so ``AND(a, b)`` and ``AND(b, a)`` fingerprint
  differently.

The construction is a canonical form, not just a hash:

1. Two rounds of Weisfeiler-Leman-style refinement give every gate a
   structural label combining its transitive-fanin shape (pin order
   preserved) and its transitive-fanout shape (order-insensitive).
2. A canonical topological numbering repeatedly emits the ready gate
   with the smallest ``(label, canonical fanin numbers)`` key.  Ties
   after that key are WL-equivalent gates in symmetric positions, where
   either order encodes the same structure.
3. The fingerprint hashes, in canonical order, each gate's type and its
   fanin gates' canonical numbers in pin order — an encoding from which
   the circuit could be rebuilt up to gate names, so two circuits
   fingerprint equal only if they are structurally identical (modulo
   SHA-256 collisions).

The canonical numbering also yields a canonical *lead* order, used to
re-index per-lead payloads (input-sort ranks, per-lead path counts) so
they can be stored once and mapped onto any permutation of the netlist.

``SCHEMA_VERSION`` tags both the fingerprint prefix and every store
entry; bumping it after any change to this algorithm or to a payload
format makes every stale entry invisible (never served, reclaimed by
``gc``).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: Gate-type code -> label bytes, indexed by GateType value.
_TYPE_NAME_BYTES = {t.value: t.name.encode() for t in GateType}

__all__ = [
    "SCHEMA_VERSION",
    "CanonicalForm",
    "canonical_form",
    "fingerprint",
]

#: Version of the fingerprint algorithms (whole-circuit ``rdfp`` and
#: cone ``rdcfp``, :mod:`repro.incremental.conefp`) *and* of every store
#: payload format.  Bump on any incompatible change; old entries become
#: invisible rather than wrong.
SCHEMA_VERSION = 1

_PREFIX = f"rdfp{SCHEMA_VERSION}"


def _h(*parts: bytes) -> bytes:
    """Collision-resistant combiner: length-prefixed SHA-256."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.digest()


def _refine(flat, label: "list[bytes]") -> "list[bytes]":
    """One WL refinement round: combine each gate's label with its
    transitive-fanin shape (pin order significant) and transitive-fanout
    shape (order-insensitive).  Operates on the flat IR's CSR adjacency;
    a branch's pin number is its lead offset within the destination's
    fanin block."""
    n = flat.num_gates
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    fanout_start = flat.fanout_start
    fanout_dst = flat.fanout_dst
    fanout_lead = flat.fanout_lead
    up = [b""] * n
    for gid in flat.topo:
        up[gid] = _h(
            label[gid],
            *(
                up[fanin_gates[i]]
                for i in range(fanin_start[gid], fanin_start[gid + 1])
            ),
        )
    down = [b""] * n
    for gid in reversed(flat.topo):
        branches = sorted(
            _h(
                (fanout_lead[i] - fanin_start[fanout_dst[i]]).to_bytes(
                    4, "big"
                ),
                down[fanout_dst[i]],
            )
            for i in range(fanout_start[gid], fanout_start[gid + 1])
        )
        down[gid] = _h(label[gid], *branches)
    return [_h(u, d) for u, d in zip(up, down)]


def _gate_labels(flat) -> "list[bytes]":
    type_names = _TYPE_NAME_BYTES
    labels = [type_names[code] for code in flat.type_code]
    labels = _refine(flat, labels)
    # A second round separates DAG-sharing patterns the first cannot
    # (e.g. one shared subtree vs two structurally equal copies).
    return _refine(flat, labels)


@dataclass(frozen=True)
class CanonicalForm:
    """The declaration-order-independent view of one frozen circuit.

    ``gate_order[i]`` / ``lead_order[i]`` are the *original* gate/lead
    ids sitting at canonical position ``i``; per-gate and per-lead
    arrays are stored in canonical order and mapped back through them.
    """

    fingerprint: str
    gate_order: "tuple[int, ...]"
    lead_order: "tuple[int, ...]"

    def pack_leads(self, values: Sequence) -> list:
        """Re-index a per-lead array (original order) canonically."""
        return [values[lead] for lead in self.lead_order]

    def unpack_leads(self, values: Sequence) -> list:
        """Inverse of :meth:`pack_leads`."""
        out = [None] * len(self.lead_order)
        for position, lead in enumerate(self.lead_order):
            out[lead] = values[position]
        return out

    def pack_gates(self, values: Sequence) -> list:
        """Re-index a per-gate array (original order) canonically."""
        return [values[gid] for gid in self.gate_order]

    def unpack_gates(self, values: Sequence) -> list:
        """Inverse of :meth:`pack_gates`."""
        out = [None] * len(self.gate_order)
        for position, gid in enumerate(self.gate_order):
            out[gid] = values[position]
        return out

    def sort_key(self, ranks: Sequence[int]) -> str:
        """Content hash of an input sort's rank array, canonical lead
        order — equal for the "same" sort on any permutation of the
        netlist."""
        blob = b",".join(b"%d" % ranks[lead] for lead in self.lead_order)
        return hashlib.sha256(blob).hexdigest()[:32]


def _canonical_gate_order(flat, labels: "list[bytes]") -> "list[int]":
    """Canonical topological numbering (see module docstring)."""
    n = flat.num_gates
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    fanout_start = flat.fanout_start
    fanout_dst = flat.fanout_dst
    remaining = [fanin_start[gid + 1] - fanin_start[gid] for gid in range(n)]
    number = [-1] * n
    ready: list = []
    for gid in range(n):
        if remaining[gid] == 0:
            heapq.heappush(ready, (labels[gid], (), gid))
    order: "list[int]" = []
    while ready:
        _label, _fanin_key, gid = heapq.heappop(ready)
        number[gid] = len(order)
        order.append(gid)
        for i in range(fanout_start[gid], fanout_start[gid + 1]):
            dst = fanout_dst[i]
            remaining[dst] -= 1
            if remaining[dst] == 0:
                fanin_key = tuple(
                    number[fanin_gates[j]]
                    for j in range(fanin_start[dst], fanin_start[dst + 1])
                )
                heapq.heappush(ready, (labels[dst], fanin_key, dst))
    return order


def canonical_form(circuit: Circuit) -> CanonicalForm:
    """Compute the full canonical form of a frozen circuit (O(E log V)).

    Runs entirely over ``circuit.flat``; the digest and orders are
    byte-identical to the original object-graph construction (the flat IR
    carries true gate-type codes, not just the engine's coarser kinds).
    """
    circuit._require_frozen()  # noqa: SLF001 - deliberate check
    flat = circuit.flat
    labels = _gate_labels(flat)
    gate_order = _canonical_gate_order(flat, labels)
    n = flat.num_gates
    number = [0] * n
    for position, gid in enumerate(gate_order):
        number[gid] = position
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    type_names = _TYPE_NAME_BYTES
    digest = hashlib.sha256()
    digest.update(b"%d" % n)
    for gid in gate_order:
        digest.update(b"|")
        digest.update(type_names[flat.type_code[gid]])
        for i in range(fanin_start[gid], fanin_start[gid + 1]):
            digest.update(b",%d" % number[fanin_gates[i]])
    lead_order = [
        lead
        for gid in gate_order
        for lead in range(fanin_start[gid], fanin_start[gid + 1])
    ]
    return CanonicalForm(
        fingerprint=f"{_PREFIX}:{digest.hexdigest()}",
        gate_order=tuple(gate_order),
        lead_order=tuple(lead_order),
    )


def fingerprint(circuit: Circuit) -> str:
    """The content-addressed fingerprint of a frozen circuit."""
    return canonical_form(circuit).fingerprint
