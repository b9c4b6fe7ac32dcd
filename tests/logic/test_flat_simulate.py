"""The flat-IR simulator against its two independent references.

:func:`repro.logic.simulate.simulate` runs over ``circuit.flat``'s CSR
arrays.  It must return exactly what the object-graph ``evaluate_gate``
loop (kept in :mod:`tests.logic.object_graph_sim`) returns, and agree
bit for bit with the bit-parallel :func:`repro.logic.bitsim.simulate_words`.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen.suite import SUITE, get_circuit
from repro.loading import as_core
from repro.logic.bitsim import pack_patterns, simulate_words
from repro.logic.simulate import all_vectors, simulate

from tests.logic.object_graph_sim import simulate_object_graph
from tests.strategies import small_circuits

S27 = Path(__file__).resolve().parents[2] / "examples" / "s27_timing.bench"


def _random_vectors(circuit, count, seed):
    rng = random.Random(seed)
    width = len(circuit.inputs)
    return [tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(count)]


def _check_against_bitsim(circuit, vectors):
    words, mask = pack_patterns(vectors)
    packed = simulate_words(circuit, words, mask)
    for i, vector in enumerate(vectors):
        values = simulate(circuit, vector)
        assert values == [(word >> i) & 1 for word in packed], vector


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits())
def test_random_circuits_match_object_graph_on_every_vector(circuit):
    for vector in all_vectors(len(circuit.inputs)):
        assert simulate(circuit, vector) == simulate_object_graph(
            circuit, vector
        ), vector


@settings(max_examples=40, deadline=None)
@given(circuit=small_circuits(), seed=st.integers(0, 2**16))
def test_random_circuits_match_bitsim(circuit, seed):
    _check_against_bitsim(circuit, _random_vectors(circuit, 16, seed))


@pytest.mark.parametrize("name", sorted(SUITE) + ["s27-core"])
def test_suite_circuits_match_both_references(name):
    circuit = as_core(S27) if name == "s27-core" else get_circuit(name)
    vectors = _random_vectors(circuit, 8, seed=len(name))
    for vector in vectors:
        assert simulate(circuit, vector) == simulate_object_graph(
            circuit, vector
        ), vector
    _check_against_bitsim(circuit, vectors)


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_width_raises_value_error(delta):
    circuit = get_circuit("c17")
    vector = (0,) * (len(circuit.inputs) + delta)
    with pytest.raises(ValueError, match="PIs"):
        simulate(circuit, vector)
