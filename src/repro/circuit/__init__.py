"""Gate-level combinational netlist substrate.

The paper's circuit model (Section II): a combinational circuit consists of
*gates* (simple gates AND/OR/NAND/NOR/NOT plus primary inputs and outputs)
and *leads* (wires connecting an output pin to one input pin; a fanout stem
contributes one lead per fanout branch).
"""

from repro.circuit.gates import (
    GateType,
    controlling_value,
    noncontrolling_value,
    is_inverting,
    evaluate_gate,
)
from repro.circuit.flat import FlatCircuit, LiteralClosures
from repro.circuit.netlist import Circuit, Lead
from repro.circuit.builder import CircuitBuilder
from repro.circuit.bench import parse_bench, parse_bench_file, write_bench
from repro.circuit.pla import parse_pla, parse_pla_file, TwoLevelCover
from repro.circuit.examples import paper_example_circuit
from repro.circuit.sequential import ScanCircuit, parse_sequential_bench
from repro.circuit.dot import to_dot
from repro.circuit import transforms

__all__ = [
    "GateType",
    "controlling_value",
    "noncontrolling_value",
    "is_inverting",
    "evaluate_gate",
    "Circuit",
    "FlatCircuit",
    "LiteralClosures",
    "Lead",
    "CircuitBuilder",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "parse_pla",
    "parse_pla_file",
    "TwoLevelCover",
    "paper_example_circuit",
    "ScanCircuit",
    "parse_sequential_bench",
    "to_dot",
    "transforms",
]
