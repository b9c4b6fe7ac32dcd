"""Full-circuit logic simulation (binary and ternary)."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.circuit.flat import K_NOT, K_PI, K_SIMPLE
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.values import X, ternary_gate_eval


def simulate(circuit: Circuit, vector: Sequence[int]) -> list[int]:
    """Simulate a fully-specified input ``vector`` (one 0/1 per PI, in
    ``circuit.inputs`` order) and return the value of every gate output.

    Runs over the circuit's flat CSR IR (``circuit.flat``): a simple
    gate's output is ``out_ctrl`` as soon as one fanin carries its
    controlling value ``ctrl``, else ``out_nc``; NOT inverts its one
    fanin, BUF and PO forward it.
    """
    flat = circuit.flat
    if len(vector) != len(flat.inputs):
        raise ValueError(
            f"vector has {len(vector)} bits, circuit has {len(flat.inputs)} PIs"
        )
    kind = flat.kind
    ctrl = flat.ctrl
    out_ctrl = flat.out_ctrl
    out_nc = flat.out_nc
    fanin_start = flat.fanin_start
    fanin_gates = flat.fanin_gates
    values = [0] * flat.num_gates
    for pi, value in zip(flat.inputs, vector):
        values[pi] = value
    for g in flat.topo:
        k = kind[g]
        if k == K_SIMPLE:
            c = ctrl[g]
            out = out_nc[g]
            for i in range(fanin_start[g], fanin_start[g + 1]):
                if values[fanin_gates[i]] == c:
                    out = out_ctrl[g]
                    break
            values[g] = out
        elif k == K_NOT:
            values[g] = 1 - values[fanin_gates[fanin_start[g]]]
        elif k != K_PI:  # K_WIRE / K_PO forward their one fanin
            values[g] = values[fanin_gates[fanin_start[g]]]
    return values


def simulate_ternary(
    circuit: Circuit, assignment: Mapping[int, int]
) -> list[int]:
    """Simulate a partial PI ``assignment`` (gate id -> 0/1); unassigned
    PIs are ``X``.  Returns ternary values for every gate output."""
    values = [X] * circuit.num_gates
    for gid in circuit.topo_order:
        gtype = circuit.gate_type(gid)
        if gtype is GateType.PI:
            values[gid] = assignment.get(gid, X)
        else:
            values[gid] = ternary_gate_eval(
                gtype, [values[s] for s in circuit.fanin(gid)]
            )
    return values


def output_values(circuit: Circuit, vector: Sequence[int]) -> tuple[int, ...]:
    """The PO values of a full simulation of ``vector``."""
    values = simulate(circuit, vector)
    return tuple(values[po] for po in circuit.outputs)


def truth_table(circuit: Circuit) -> list[tuple[int, ...]]:
    """Exhaustive truth table (PO tuples indexed by input vector as an
    integer with ``circuit.inputs[0]`` as the most significant bit)."""
    n = len(circuit.inputs)
    if n > 20:
        raise ValueError("truth_table is exponential; circuit has too many PIs")
    table = []
    for code in range(1 << n):
        vector = [(code >> (n - 1 - i)) & 1 for i in range(n)]
        table.append(output_values(circuit, vector))
    return table


def all_vectors(n: int) -> Iterable[tuple[int, ...]]:
    """Iterate all input vectors of width ``n`` (MSB-first order)."""
    for code in range(1 << n):
        yield tuple((code >> (n - 1 - i)) & 1 for i in range(n))
