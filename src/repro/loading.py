"""One loading adapter for every analysis surface.

Historically each entry point grew its own loader: the CLI resolved
suite names and files, a dedicated scan parser handled sequential
designs, sessions demanded an already-frozen :class:`Circuit`.  This
module unifies them behind two functions:

``load(source, scan=...)``
    Resolve *anything that names a circuit* — a :class:`Circuit`, a
    :class:`ScanCircuit`, a ``.bench``/``.pla`` path, or a generator
    suite name — into a circuit object.  Sequential ``.bench`` netlists
    (containing ``DFF`` lines) are auto-detected and scan-expanded.

``as_core(source)``
    ``load`` plus the ``as_core()`` protocol: always returns the
    combinational :class:`Circuit` an analysis runs on (a
    ``ScanCircuit`` contributes its core).  ``CircuitSession``,
    ``classify``, ``run_tightness``, the CLI and the service client all
    coerce their input through this, so every surface accepts every
    source form.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.circuit.sequential import ScanCircuit, parse_sequential_bench
from repro.errors import CircuitError

#: A ``.bench`` line defining a flip-flop — the sequential marker.
_DFF_RE = re.compile(r"=\s*DFF(SR)?\s*\(", re.IGNORECASE)


def _load_bench_text(
    text: str, name: str, scan: "bool | None"
) -> "Circuit | ScanCircuit":
    sequential = bool(_DFF_RE.search(
        "\n".join(ln.split("#", 1)[0] for ln in text.splitlines())
    ))
    if scan is None:
        scan = sequential
    if scan:
        if not sequential:
            raise CircuitError(
                f"{name}: scan=True but the netlist has no flip-flops"
            )
        return parse_sequential_bench(text, name=name)
    return parse_bench(text, name=name)


def load(
    source, *, scan: "bool | None" = None, name: "str | None" = None
) -> "Circuit | ScanCircuit":
    """Resolve ``source`` into a :class:`Circuit` or :class:`ScanCircuit`.

    ``source`` may be a circuit object (returned as-is), a path to a
    ``.bench`` or ``.pla`` file, or a generator-suite name.  ``scan``
    controls sequential handling of ``.bench`` sources: ``None`` (the
    default) auto-detects ``DFF`` lines, ``True`` requires them,
    ``False`` forbids them.  ``name`` overrides the circuit name for
    file sources.
    """
    if isinstance(source, ScanCircuit):
        return source
    if isinstance(source, Circuit):
        if scan:
            raise CircuitError(
                "scan=True needs a sequential source; got a combinational "
                "Circuit (pass a ScanCircuit or a sequential .bench)"
            )
        return source
    if not isinstance(source, (str, Path)):
        core = getattr(source, "as_core", None)
        if callable(core):
            return core()
        raise TypeError(
            f"cannot load a circuit from {type(source).__name__!r}"
        )
    path = Path(source)
    if path.suffix == ".bench" and path.exists():
        return _load_bench_text(
            path.read_text(), name or path.stem, scan
        )
    if path.suffix == ".pla" and path.exists():
        from repro.circuit.pla import parse_pla_file

        if scan:
            raise CircuitError(f"{path}: .pla sources are combinational")
        return parse_pla_file(path).to_circuit()
    from repro.gen.suite import get_circuit

    if scan:
        raise CircuitError(
            f"scan=True needs a sequential .bench; suite circuits "
            f"(here {source!r}) are combinational"
        )
    return get_circuit(str(source))


def as_core(source, *, scan: "bool | None" = None) -> Circuit:
    """:func:`load`, then coerce to the combinational analysis core."""
    return load(source, scan=scan).as_core()


__all__ = ["as_core", "load"]
