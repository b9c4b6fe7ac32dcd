"""Parameterized scaling sweeps over generator families.

The data behind the Table-II narrative: how path counts and classifier
cost grow with circuit size, per family.  Used by the scaling example
and the growth tests; each point records exact counts and one FS
classification (skipped above the enumeration budget, mirroring the
paper's "could not be completed" entries).

Circuits are built serially (generator families are often lambdas,
which do not pickle), but the measurements themselves fan out through
the supervised :class:`~repro.experiments.supervisor.TaskRunner` passed
as ``runner=``; each point runs through its own
:class:`~repro.classify.session.CircuitSession`, so the exact count
feeding ``total_logical`` is also the one the classifier reports
against — one DP per point.

Long sweeps are restartable: pass ``checkpoint=`` to stream each
completed point to JSONL, and ``resume=True`` to skip parameters
already recorded (their circuits are not even built) — a sweep killed
mid-run recomputes only the missing points and yields identical data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError
from repro.experiments.supervisor import (
    Checkpoint,
    RowFailure,
    TaskRunner,
    as_checkpoint,
    resumable_map,
)
from repro.util.timer import Stopwatch


def _families() -> "dict[str, Callable[[int], Circuit]]":
    from repro.gen.adders import (
        carry_lookahead_adder,
        carry_select_adder,
        ripple_carry_adder,
    )
    from repro.gen.multiplier import array_multiplier
    from repro.gen.mux import decoder, mux_tree
    from repro.gen.parity import parity_tree

    return {
        "ripple_carry": ripple_carry_adder,
        "carry_lookahead": carry_lookahead_adder,
        "carry_select": carry_select_adder,
        "array_multiplier": array_multiplier,
        "parity_tree": parity_tree,
        "mux_tree": mux_tree,
        "decoder": decoder,
    }


#: named generator families ``repro-rd sweep`` can iterate (each maps
#: one integer parameter — width/levels — to a circuit)
FAMILIES = _families()


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter, circuit) measurement."""

    parameter: int
    gates: int
    total_logical: int
    accepted: "int | None"  # None = classification skipped (too large)
    classify_seconds: "float | None"

    @property
    def rd_percent(self) -> "float | None":
        if self.accepted is None or not self.total_logical:
            return None
        return 100.0 * (1 - self.accepted / self.total_logical)

    def to_dict(self) -> dict:
        """JSON-safe form for checkpointing (floats round-trip exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPoint":
        return cls(**data)


def _sweep_task(payload: "tuple[int, Circuit, int]") -> SweepPoint:
    """Measure one prebuilt circuit (top-level: picklable for the pool)."""
    parameter, circuit, classification_budget = payload
    session = CircuitSession(circuit)
    total_logical = session.counts.total_logical
    accepted = None
    seconds = None
    try:
        with Stopwatch() as sw:
            result = session.classify(
                Criterion.FS, max_accepted=classification_budget
            )
        accepted = result.accepted
        seconds = sw.elapsed
    except ClassifyError:
        pass  # over budget: counting-only point
    return SweepPoint(
        parameter=parameter,
        gates=circuit.num_gates,
        total_logical=total_logical,
        accepted=accepted,
        classify_seconds=seconds,
    )


def sweep_family(
    family: Callable[[int], Circuit],
    parameters: "Sequence[int] | Iterable[int]",
    classification_budget: int = 500_000,
    *,
    runner: "TaskRunner | None" = None,
    checkpoint: "str | Checkpoint | None" = None,
    resume: bool = False,
) -> "list[SweepPoint | RowFailure]":
    """Measure one generator family across ``parameters``.

    Classification (FS criterion) runs only while the *accepted* path
    count stays within ``classification_budget``; larger instances are
    counted exactly but not enumerated.  ``runner=TaskRunner(jobs=N)``
    measures the points concurrently under supervision (point order and
    values are unchanged; a point that fails even after retry and
    in-process degradation comes back as a
    :class:`~repro.experiments.supervisor.RowFailure`).  ``checkpoint``
    / ``resume`` stream and skip completed points, keyed by parameter.
    """

    def prepare(parameter: int):
        circuit = family(parameter)
        payload = (parameter, circuit, classification_budget)
        return payload, f"sweep[{parameter}]", circuit

    return resumable_map(
        runner,
        _sweep_task,
        parameters,
        prepare,
        SweepPoint,
        as_checkpoint(checkpoint, "sweep"),
        resume,
    )


def growth_factors(points: "Sequence[SweepPoint]") -> "list[float]":
    """Consecutive path-count ratios — the family's explosion rate."""
    return [
        points[i + 1].total_logical / points[i].total_logical
        for i in range(len(points) - 1)
        if points[i].total_logical
    ]
