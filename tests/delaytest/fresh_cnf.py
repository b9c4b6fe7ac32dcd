"""Reference FS / non-robust / robust tests: one fresh CNF per query.

These are the per-path builders the library used before it shared one
sensitization encoder per circuit: every call Tseitin-encodes the
circuit (twice for a robust test), appends the path's side conditions
as unit clauses and solves a new :class:`~repro.atpg.sat.Solver`.  They
are kept here as the differential reference — the library wrappers
must return byte-identical answers, ``None`` included.
"""

from __future__ import annotations

from repro.atpg.cnf import CNF
from repro.atpg.sat import Solver
from repro.atpg.tseitin import tseitin_encode
from repro.circuit.gates import (
    controlling_value,
    has_controlling_value,
    is_inverting,
)
from repro.circuit.netlist import Circuit
from repro.paths.path import LogicalPath


def _on_path_values(circuit: Circuit, lp: LogicalPath) -> list[tuple[int, int]]:
    """(lead, final value carried into the lead) for every path lead."""
    val = lp.final_value
    out = []
    for lead in lp.path.leads:
        out.append((lead, val))
        if is_inverting(circuit.gate_type(circuit.lead_dst(lead))):
            val = 1 - val
    return out


def _unit(var: int, value: int) -> list[int]:
    return [var if value else -var]


def _side_sources(circuit: Circuit, lead: int) -> list[int]:
    dst = circuit.lead_dst(lead)
    pin = circuit.lead_pin(lead)
    fanin = circuit.fanin(dst)
    return [src for p, src in enumerate(fanin) if p != pin]


def fs_vector(circuit: Circuit, lp: LogicalPath):
    cnf = CNF()
    enc = tseitin_encode(circuit, cnf)
    pi = lp.path.source(circuit)
    cnf.add_clause(_unit(enc.var(pi), lp.final_value))
    for lead, val in _on_path_values(circuit, lp):
        dst = circuit.lead_dst(lead)
        gtype = circuit.gate_type(dst)
        if not has_controlling_value(gtype):
            continue
        c = controlling_value(gtype)
        if val != c:
            for src in _side_sources(circuit, lead):
                cnf.add_clause(_unit(enc.var(src), 1 - c))
    result = Solver(cnf).solve()
    if not result.sat:
        return None
    return enc.decode_inputs(circuit, result.model)


def nonrobust_test(circuit: Circuit, lp: LogicalPath):
    cnf = CNF()
    enc = tseitin_encode(circuit, cnf)
    pi = lp.path.source(circuit)
    cnf.add_clause(_unit(enc.var(pi), lp.final_value))
    for lead, _val in _on_path_values(circuit, lp):
        dst = circuit.lead_dst(lead)
        gtype = circuit.gate_type(dst)
        if not has_controlling_value(gtype):
            continue
        c = controlling_value(gtype)
        for src in _side_sources(circuit, lead):
            cnf.add_clause(_unit(enc.var(src), 1 - c))
    result = Solver(cnf).solve()
    if not result.sat:
        return None
    return enc.decode_inputs(circuit, result.model)


def robust_test(circuit: Circuit, lp: LogicalPath):
    cnf = CNF()
    enc1 = tseitin_encode(circuit, cnf)
    enc2 = tseitin_encode(circuit, cnf)
    pi = lp.path.source(circuit)
    cnf.add_clause(_unit(enc1.var(pi), 1 - lp.final_value))
    cnf.add_clause(_unit(enc2.var(pi), lp.final_value))
    for lead, val in _on_path_values(circuit, lp):
        dst = circuit.lead_dst(lead)
        gtype = circuit.gate_type(dst)
        if not has_controlling_value(gtype):
            continue
        c = controlling_value(gtype)
        for src in _side_sources(circuit, lead):
            cnf.add_clause(_unit(enc2.var(src), 1 - c))
            if val == c:
                cnf.add_clause(_unit(enc1.var(src), 1 - c))
    result = Solver(cnf).solve()
    if not result.sat:
        return None
    return (
        enc1.decode_inputs(circuit, result.model),
        enc2.decode_inputs(circuit, result.model),
    )
