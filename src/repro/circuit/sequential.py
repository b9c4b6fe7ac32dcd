"""Sequential (scan) circuit support.

The paper's theory is combinational; in practice path delay testing is
applied to sequential designs through full scan, where every flip-flop
is controllable/observable and the analysis runs on the combinational
core with flip-flop outputs as pseudo-PIs and flip-flop inputs as
pseudo-POs.  This module provides exactly that expansion for
ISCAS-89-style ``.bench`` netlists (``X = DFF(Y)``).

RD identification, test generation and path selection then apply to
``ScanCircuit.core`` unchanged; the pseudo-I/O bookkeeping lets a test
flow distinguish launch/capture points from real pins.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.circuit.bench import BenchParseError, parse_bench, _GATE_RE, _IO_RE
from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class ScanCircuit:
    """A sequential netlist expanded for full-scan delay testing.

    ``core`` is the combinational circuit; each flip-flop contributes a
    pseudo-PI (its output net, named like the FF) and a pseudo-PO
    (capturing its next-state input, named ``<signal>_po``).
    """

    core: Circuit
    #: FF name -> (pseudo-PI gate id, pseudo-PO gate id)
    flipflops: dict

    def as_core(self) -> Circuit:
        """The combinational core — the :class:`Circuit` every analysis
        surface (classify, tightness, signoff) actually runs on."""
        return self.core

    @property
    def name(self) -> str:
        return self.core.name

    @property
    def num_flipflops(self) -> int:
        return len(self.flipflops)

    @property
    def pseudo_inputs(self) -> tuple:
        return tuple(pi for pi, _po in self.flipflops.values())

    @property
    def pseudo_outputs(self) -> tuple:
        return tuple(po for _pi, po in self.flipflops.values())

    @property
    def primary_inputs(self) -> tuple:
        """Real PIs (excluding pseudo-PIs from flip-flops)."""
        pseudo = set(self.pseudo_inputs)
        return tuple(pi for pi in self.core.inputs if pi not in pseudo)

    @property
    def primary_outputs(self) -> tuple:
        """Real POs (excluding pseudo-POs capturing next-state)."""
        pseudo = set(self.pseudo_outputs)
        return tuple(po for po in self.core.outputs if po not in pseudo)

    def next_state(self, vector) -> tuple:
        """One symbolic clock tick: simulate the core on ``vector`` (over
        ``core.inputs`` order) and return the captured next-state values
        in flip-flop declaration order."""
        from repro.logic.simulate import simulate

        values = simulate(self.core, vector)
        return tuple(values[po] for _pi, po in self.flipflops.values())


def parse_sequential_bench(text: str, name: str = "seq") -> ScanCircuit:
    """Parse a ``.bench`` netlist that may contain ``DFF`` gates.

    Every ``X = DFF(Y)`` is removed from the gate list; ``X`` becomes a
    pseudo-PI and ``Y`` gains a pseudo-PO (unless already a declared
    output, in which case the existing PO is reused as the capture
    point).
    """
    ff_defs: dict = {}
    declared_outputs: list = []
    kept_lines: list = []
    defined_signals: set = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            if io_match.group(1).upper() == "OUTPUT":
                declared_outputs.append(io_match.group(2))
            else:
                defined_signals.add(io_match.group(2))
            kept_lines.append(line)
            continue
        gate_match = _GATE_RE.match(line)
        if gate_match:
            defined_signals.add(gate_match.group(1))
        if gate_match and gate_match.group(2).upper() in ("DFF", "DFFSR"):
            out_name = gate_match.group(1)
            args = [a.strip() for a in gate_match.group(3).split(",") if a.strip()]
            if len(args) != 1:
                raise BenchParseError(
                    f"flip-flop {out_name!r} must have exactly one data input"
                )
            if out_name in ff_defs:
                raise BenchParseError(f"flip-flop {out_name!r} redefined")
            ff_defs[out_name] = args[0]
            continue
        kept_lines.append(line)
    if not ff_defs:
        raise BenchParseError(
            "netlist has no flip-flops; use parse_bench for combinational "
            "circuits"
        )
    expanded = []
    for ff_name in ff_defs:
        expanded.append(f"INPUT({ff_name})")
    expanded.extend(kept_lines)
    for data in ff_defs.values():
        if data not in declared_outputs:
            # The pseudo-PO will be a new gate named "<data>_po"; a
            # netlist signal already claiming that name would silently
            # alias the capture point, so reject it up front.
            if f"{data}_po" in defined_signals:
                raise BenchParseError(
                    f"cannot create pseudo-PO {data}_po for flip-flop "
                    f"data net {data!r}: the netlist already defines a "
                    f"signal named {data}_po; rename it"
                )
            declared_outputs.append(data)
            expanded.append(f"OUTPUT({data})")
    core = parse_bench("\n".join(expanded), name=name)
    flipflops = {}
    for ff_name, data in ff_defs.items():
        pseudo_pi = core.gate_by_name(ff_name)
        pseudo_po = core.gate_by_name(f"{data}_po")
        flipflops[ff_name] = (pseudo_pi, pseudo_po)
    return ScanCircuit(core=core, flipflops=flipflops)


#: A small ISCAS-89-style sequential benchmark (s27-like: 4 PIs, 3 FFs,
#: one PO) used in tests and examples.
S27_LIKE = """
# s27-like sequential benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
"""
