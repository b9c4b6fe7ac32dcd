"""Per-output-cone content fingerprints (``rdcfp1:``) and the cone index.

The paper's classification (Algorithm 2) is purely cone-local: whether a
lead is robust-dependent is decided entirely inside the transitive fanin
of one output cone (side-input conditions only ever constrain gates on
and beside the path, all of which lie in the cone).  The whole-circuit
store fingerprint (``rdfp1:``) therefore over-keys cached results — a
one-gate edit invalidates every row even though most cones are
untouched.  This module provides the finer key.

Two artifacts are computed, both in single topological passes over the
shared :class:`~repro.circuit.flat.FlatCircuit` CSR:

* **Per-gate fold hashes** — each gate's hash folds its type with its
  fanin gates' hashes in pin order.  A gate's fold hash is stable as
  long as its transitive fanin is untouched, which makes the hashes
  ideal for *delta reporting*: the gates responsible for a dirty cone
  are exactly the multiset difference of the two cones' fold hashes.
* **Cone membership bitsets** — ``closure[g] = bit(g) | OR(closure[s])``
  over the fanin CSR; the PO rows are retained as big-int gate masks.

The **cone fingerprint** itself is deliberately *not* the PO's fold
hash.  Fold hashes are blind to DAG sharing: ``AND(a, a)`` through two
distinct branches of one stem and ``AND(a1, a2)`` over two structurally
equal but distinct cones fold identically, yet classify differently (a
shared stem constrains both pins at once).  Keying stored results by a
fold hash would violate the store's never-wrong contract.  Instead the
fingerprint hashes a canonical rooted-DAG *encoding*: a pin-order DFS
from the PO that numbers gates at first visit and emits back-references
on revisits.  The encoding determines the cone up to gate renaming and
declaration order (isomorphism-insensitive), distinguishes shared from
copied subtrees, and never looks outside the cone (untouched-fanin
stability).

``cone_index(circuit)`` builds everything once and caches it on the
circuit; :meth:`~repro.circuit.netlist.Circuit.replace_gate` invalidates
the cache together with ``circuit.flat``.  The build is timed under
``span("conefp")`` so the ``span.conefp`` histogram tracks its cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.obs import span
from repro.store.fingerprint import SCHEMA_VERSION, _h

__all__ = [
    "Cone",
    "ConeIndex",
    "cone_fingerprints",
    "cone_index",
]

_PREFIX = f"rdcfp{SCHEMA_VERSION}"

#: Gate-type code -> label bytes, indexed by GateType value.
_TYPE_NAME_BYTES = {t.value: t.name.encode() for t in GateType}


@dataclass(frozen=True)
class Cone:
    """One output cone of the indexed circuit."""

    po: int  #: PO gate id in the host circuit
    output: str  #: PO gate name (the stable handle across edits)
    fingerprint: str  #: canonical ``rdcfp1:`` content hash of the cone
    mask: int  #: gate-membership bitset over host gate ids

    @property
    def num_gates(self) -> int:
        return self.mask.bit_count()

    def gates(self) -> Iterator[int]:
        """Host gate ids of the cone, ascending."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


@dataclass(frozen=True)
class ConeIndex:
    """All cones of one frozen circuit, plus the per-gate fold hashes."""

    circuit: Circuit
    gate_hash: "tuple[bytes, ...]"  #: per-gate fold hash, host gate order
    cones: "tuple[Cone, ...]"  #: one per PO, in circuit output order
    build_seconds: float

    def cone(self, output: str) -> Cone:
        """The cone whose PO gate is named ``output`` (KeyError if none)."""
        for cone in self.cones:
            if cone.output == output:
                return cone
        raise KeyError(f"no output cone named {output!r}")

    def fingerprints(self) -> "Dict[str, str]":
        """``{output name: cone fingerprint}`` for every PO."""
        return {cone.output: cone.fingerprint for cone in self.cones}

    def gate_hash_names(self, cone: Cone) -> "Dict[bytes, list[str]]":
        """Fold hash -> gate names inside ``cone`` (for delta reports)."""
        out: "Dict[bytes, list[str]]" = {}
        for gid in cone.gates():
            out.setdefault(self.gate_hash[gid], []).append(
                self.circuit.gate_name(gid)
            )
        return out


def _fold_hashes(flat) -> "list[bytes]":
    """Per-gate fold hashes in one topological pass over the fanin CSR."""
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    type_code = flat.type_code
    names = _TYPE_NAME_BYTES
    hashes: "list[bytes]" = [b""] * flat.num_gates
    for gid in flat.topo:
        hashes[gid] = _h(
            names[type_code[gid]],
            *(
                hashes[fanin_gates[i]]
                for i in range(fanin_start[gid], fanin_start[gid + 1])
            ),
        )
    return hashes


def _cone_masks(flat) -> "list[int]":
    """Transitive-fanin closure bitsets in one topological pass."""
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    closure = [0] * flat.num_gates
    for gid in flat.topo:
        mask = 1 << gid
        for i in range(fanin_start[gid], fanin_start[gid + 1]):
            mask |= closure[fanin_gates[i]]
        closure[gid] = mask
    return closure


def _cone_fingerprint(flat, root: int) -> str:
    """Canonical rooted-DAG encoding of the cone under ``root``, hashed.

    Pin-order DFS from the root; a gate is numbered at first visit and
    emitted as ``N<type>,<arity>;`` followed by its fanin encodings, a
    revisit is emitted as ``R<number>;``.  Arity makes the stream
    prefix-free; first-visit numbering makes it declaration-order- and
    name-independent while keeping DAG sharing visible.
    """
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    type_code = flat.type_code
    names = _TYPE_NAME_BYTES
    digest = hashlib.sha256()
    visit: "dict[int, int]" = {}
    stack = [root]
    while stack:
        gid = stack.pop()
        number = visit.get(gid)
        if number is not None:
            digest.update(b"R%d;" % number)
            continue
        visit[gid] = len(visit)
        lo, hi = fanin_start[gid], fanin_start[gid + 1]
        digest.update(b"N%s,%d;" % (names[type_code[gid]], hi - lo))
        for i in range(hi - 1, lo - 1, -1):
            stack.append(fanin_gates[i])
    return f"{_PREFIX}:{digest.hexdigest()}"


def cone_index(circuit: Circuit) -> ConeIndex:
    """The circuit's cone index, built once and cached on the circuit.

    :meth:`Circuit.replace_gate` (and unpickling) invalidate the cache;
    all other ``Circuit`` mutation happens before ``freeze()``, which the
    index requires.
    """
    circuit._require_frozen()  # noqa: SLF001 - deliberate check
    cached = getattr(circuit, "_cone_index", None)
    if cached is not None:
        return cached
    import time

    started = time.perf_counter()
    with span("conefp", circuit=circuit.name):
        flat = circuit.flat
        gate_hash = tuple(_fold_hashes(flat))
        closure = _cone_masks(flat)
        cones = tuple(
            Cone(
                po=po,
                output=circuit.gate_name(po),
                fingerprint=_cone_fingerprint(flat, po),
                mask=closure[po],
            )
            for po in circuit.outputs
        )
    index = ConeIndex(
        circuit=circuit,
        gate_hash=gate_hash,
        cones=cones,
        build_seconds=time.perf_counter() - started,
    )
    circuit._cone_index = index  # noqa: SLF001 - cache slot owned here
    return index


def cone_fingerprints(circuit: Circuit) -> "Dict[str, str]":
    """``{output name: rdcfp1 fingerprint}`` for a frozen circuit."""
    return cone_index(circuit).fingerprints()
