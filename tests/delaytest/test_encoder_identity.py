"""The shared-encoder testability wrappers against fresh-CNF references.

``fs_vector``, ``nonrobust_test`` and ``robust_test`` answer every query
on a pristine copy of one cached template solver per circuit.  The
contract is that this changes nothing but the cost: each wrapper must
return exactly what the one-fresh-CNF-per-query reference builders in
:mod:`tests.delaytest.fresh_cnf` return, ``None`` included, and every
returned vector must replay as the certificate it claims to be.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.circuit.gates import GateType
from repro.classify.conditions import Criterion
from repro.classify.exact import satisfies_criterion
from repro.delaytest import testability
from repro.delaytest.simulator import sensitized_paths
from repro.gen.suite import get_circuit
from repro.loading import as_core
from repro.obs import get_registry
from repro.paths.enumerate import enumerate_logical_paths
from repro.verdict.encode import encoder_for

from tests.delaytest import fresh_cnf
from tests.strategies import small_circuits

S27 = Path(__file__).resolve().parents[2] / "examples" / "s27_timing.bench"
WRAPPERS = ("fs_vector", "nonrobust_test", "robust_test")


def _check_against_reference(circuit) -> None:
    for lp in enumerate_logical_paths(circuit):
        answers = {}
        for name in WRAPPERS:
            got = getattr(testability, name)(circuit, lp)
            want = getattr(fresh_cnf, name)(circuit, lp)
            assert got == want, f"{name} {lp.describe(circuit)}: {got} != {want}"
            answers[name] = got
        for name, criterion in (
            ("fs_vector", Criterion.FS),
            ("nonrobust_test", Criterion.NR),
        ):
            if answers[name] is not None:
                assert satisfies_criterion(circuit, criterion, lp, answers[name])
        pair = answers["robust_test"]
        if pair is not None:
            assert lp in sensitized_paths(circuit, *pair).robust


@settings(max_examples=30, deadline=None)
@given(circuit=small_circuits())
def test_random_circuits_match_reference(circuit):
    _check_against_reference(circuit)


@pytest.mark.parametrize("source", ["c17", "apex-a", "s27-core"])
def test_named_circuits_match_reference(source):
    circuit = as_core(S27) if source == "s27-core" else get_circuit(source)
    _check_against_reference(circuit)


class TestEncoderCache:
    def test_one_encoder_and_two_frames_per_circuit(self):
        circuit = get_circuit("c17")
        built = get_registry().counter("delaytest.encodings_built")
        queries = get_registry().counter("delaytest.queries")
        built_before, queries_before = built.value, queries.value
        paths = list(enumerate_logical_paths(circuit))
        for lp in paths:
            for name in WRAPPERS:
                getattr(testability, name)(circuit, lp)
        assert encoder_for(circuit) is encoder_for(circuit)
        assert built.value - built_before == 2  # frame 1, frame 2
        assert queries.value - queries_before == 3 * len(paths)

    def test_replace_gate_drops_the_encoder(self):
        """After an ECO edit the wrappers answer for the edited netlist,
        not from the encoding cached before it."""
        circuit = get_circuit("c17")
        paths = list(enumerate_logical_paths(circuit))
        before = [testability.robust_test(circuit, lp) for lp in paths]
        stale = encoder_for(circuit)
        name = circuit.gate_name(circuit.outputs[0])
        driver = circuit.fanin(circuit.outputs[0])[0]
        edited = circuit.gate_name(driver)
        circuit.replace_gate(edited, GateType.NOR, circuit.fanin(driver))
        assert encoder_for(circuit) is not stale
        after = [testability.robust_test(circuit, lp) for lp in paths]
        assert after == [fresh_cnf.robust_test(circuit, lp) for lp in paths]
        assert after != before, f"editing {edited} (feeding {name}) changed nothing"
