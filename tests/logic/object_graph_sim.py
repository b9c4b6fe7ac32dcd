"""Reference simulator over the object graph.

This is :func:`repro.logic.simulate.simulate` as it was before it ran
on the flat CSR IR: one :func:`repro.circuit.gates.evaluate_gate` call
per gate, fanin read through ``Circuit.fanin``.  It is kept here as the
differential reference for the flat simulator.
"""

from __future__ import annotations

from repro.circuit.gates import GateType, evaluate_gate


def simulate_object_graph(circuit, vector):
    if len(vector) != len(circuit.inputs):
        raise ValueError(
            f"vector has {len(vector)} bits, circuit has {len(circuit.inputs)} PIs"
        )
    values = [0] * circuit.num_gates
    pi_value = dict(zip(circuit.inputs, vector))
    for gid in circuit.topo_order:
        gtype = circuit.gate_type(gid)
        if gtype is GateType.PI:
            values[gid] = pi_value[gid]
        else:
            values[gid] = evaluate_gate(
                gtype, [values[s] for s in circuit.fanin(gid)]
            )
    return values
