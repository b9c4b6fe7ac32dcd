"""Classifier-throughput floor: FS and SIGMA_PI (Heuristic-1 sort)
passes over a three-circuit subset of the Table-I suite must clear
``FLOOR_EDGES_PER_SECOND`` in aggregate.

The floor sits far below what the kernel measures (``classify.edges_per_s``
in ``perfbench/``): shared CI runners are slow and noisy, and this gate
exists to catch order-of-magnitude engine regressions (an accidental
return to object-graph traversal, a broken memo table), not percent-level
drift.  ``perfbench/run.py`` on a quiet machine gives the real numbers.
"""

from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.gen.suite import get_circuit

#: Hard throughput floor (path-edge extensions per second).  The flat-IR
#: bitset engine clears ~700k e/s on a quiet dev machine; the pre-flat
#: engine recorded 143k.  150k therefore passes only with the fast
#: kernel, with ~4x headroom for slow CI hardware.
FLOOR_EDGES_PER_SECOND = 150_000

#: Enough edges to dominate interpreter warm-up, small enough for CI.
SMOKE_CIRCUITS = ("s432-rand", "s1355-par", "s2670-rand")


def test_classifier_clears_the_throughput_floor():
    edges = 0
    elapsed = 0.0
    for name in SMOKE_CIRCUITS:
        session = CircuitSession(get_circuit(name))
        for criterion, sort in (
            (Criterion.FS, None),
            (Criterion.SIGMA_PI, session.heuristic1_sort()),
        ):
            result = session.classify(criterion, sort=sort)
            edges += result.edges_visited
            elapsed += result.elapsed
    rate = edges / elapsed
    assert rate >= FLOOR_EDGES_PER_SECOND, (
        f"{edges} edges in {elapsed:.2f}s = {rate:,.0f} edges/s, "
        f"below the {FLOOR_EDGES_PER_SECOND:,} floor"
    )
