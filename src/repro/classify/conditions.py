"""Sensitization criteria and their per-gate side-input conditions.

All three criteria ask for an input vector ``v`` with ``v(PI(P)) = x``
plus, at each gate ``g`` along the path with on-path input lead ``l``:

===========  ==========================  ===========================
criterion    on-path value at l = non-c  on-path value at l = c
===========  ==========================  ===========================
FS  (Def 4)  all side inputs non-c       (no condition)
NR  (Def 5)  all side inputs non-c       all side inputs non-c
σ^π (Lem 2)  all side inputs non-c       low-order side inputs non-c
===========  ==========================  ===========================

Remark 2 of the paper is visible in the table: dropping the π3 column
entry of SIGMA_PI yields FS.  NR is the most restrictive, giving the
hierarchy ``T(C) ⊂ LP(σ^π) ⊂ FS(C)`` of Lemma 1.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.circuit.gates import has_controlling_value
from repro.circuit.netlist import Circuit

if TYPE_CHECKING:  # annotation-only; avoids a classify <-> sorting cycle
    from repro.sorting.input_sort import InputSort


class Criterion(enum.Enum):
    """Which path set is being (super-)approximated."""

    FS = "functionally-sensitizable"
    NR = "non-robustly-testable"
    SIGMA_PI = "lp-sigma-pi"

    @property
    def needs_sort(self) -> bool:
        return self is Criterion.SIGMA_PI


#: the criterion names the CLI and the service wire accept
CRITERIA = {"fs": Criterion.FS, "nr": Criterion.NR, "sigma": Criterion.SIGMA_PI}


def required_side_pins(
    criterion: Criterion,
    circuit: Circuit,
    lead: int,
    on_path_is_controlling: bool,
    sort: "InputSort | None",
) -> list[int]:
    """Pins of ``dst(lead)`` that must carry non-controlling stable
    values for the on-path transition entering through ``lead``.

    Only called for simple multi-input gates (NOT/BUF/PO impose no side
    conditions).
    """
    dst = circuit.lead_dst(lead)
    pin = circuit.lead_pin(lead)
    if not on_path_is_controlling:
        # (FU2)/(NR2)/(π2): every side input non-controlling.
        return [p for p in range(len(circuit.fanin(dst))) if p != pin]
    if criterion is Criterion.FS:
        return []
    if criterion is Criterion.NR:
        return [p for p in range(len(circuit.fanin(dst))) if p != pin]
    if criterion is Criterion.SIGMA_PI:
        if sort is None:
            raise ValueError("SIGMA_PI criterion requires an input sort")
        return sort.low_order_side_pins(lead)
    raise ValueError(f"unknown criterion {criterion}")


def packed_side_conditions(
    circuit: Circuit,
    criterion: Criterion,
    sort: "InputSort | None" = None,
) -> tuple[list[int], list[int]]:
    """Word-packed side-input conditions for every lead of ``circuit``.

    Returns ``(all_masks, ctrl_masks)``, two lists indexed by lead: gate
    bitsets (bit ``s`` set iff source gate ``s`` must carry the
    destination gate's non-controlling value) for the two on-path cases of
    the criterion table above — non-controlling on-path value
    (``all_masks``) and controlling on-path value (``ctrl_masks``).

    This is the same information :func:`required_side_pins` yields pin by
    pin, folded into one machine-word-parallel mask per lead (duplicate
    source gates collapse — a gate feeding two side pins must be
    non-controlling either way).  The bitset classification engine builds
    its per-lead condition entries from these masks; the property tests
    pin the two forms to each other.

    Leads into PO/NOT/BUF gates impose no side conditions: both masks 0.
    """
    all_masks = [0] * circuit.num_leads
    ctrl_masks = [0] * circuit.num_leads
    for lead in range(circuit.num_leads):
        dst = circuit.lead_dst(lead)
        gt = circuit.gate_type(dst)
        if not has_controlling_value(gt):
            continue
        fanin = circuit.fanin(dst)
        m = 0
        for p in required_side_pins(criterion, circuit, lead, False, sort):
            m |= 1 << fanin[p]
        all_masks[lead] = m
        m = 0
        for p in required_side_pins(criterion, circuit, lead, True, sort):
            m |= 1 << fanin[p]
        ctrl_masks[lead] = m
    return all_masks, ctrl_masks
