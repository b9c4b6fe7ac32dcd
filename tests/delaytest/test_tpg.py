"""Unit tests for robust test-set generation with compaction."""

import hashlib
import json

import pytest

from repro.classify.conditions import Criterion
from repro.classify.engine import classify
from repro.classify.session import CircuitSession
from repro.delaytest.simulator import simulate_test_set
from repro.delaytest.testability import is_robustly_testable
from repro.delaytest.tpg import generate_test_set
from repro.gen.suite import get_circuit
from repro.paths.enumerate import enumerate_logical_paths
from repro.sorting.heuristics import heuristic2_sort


def non_rd_targets(circuit):
    targets = []
    classify(
        circuit,
        Criterion.SIGMA_PI,
        sort=heuristic2_sort(circuit),
        on_path=targets.append,
    )
    return targets


class TestOnPaperExample:
    def test_full_coverage_of_optimal_selection(self, example_circuit):
        targets = non_rd_targets(example_circuit)
        assert len(targets) == 5
        result = generate_test_set(example_circuit, targets)
        assert result.coverage == 1.0
        assert not result.untestable
        assert len(result.pairs) <= 5

    def test_untestable_path_reported(self, example_circuit):
        # Include the known-untestable path bA falling as a target.
        targets = list(enumerate_logical_paths(example_circuit))
        result = generate_test_set(example_circuit, targets)
        untestable = {
            lp.describe(example_circuit) for lp in result.untestable
        }
        assert "b -> g_and -> g_or -> out [1->0]" in untestable
        for lp in result.covered:
            assert is_robustly_testable(example_circuit, lp)


class TestSoundnessOfCoverage:
    def test_claimed_coverage_verified_by_simulation(self, small_circuits):
        """Re-simulate the produced pairs: everything marked covered must
        actually be robustly sensitized by some pair."""
        for circuit in small_circuits:
            targets = non_rd_targets(circuit)
            result = generate_test_set(circuit, targets)
            resim = simulate_test_set(circuit, result.pairs)
            for lp in result.covered:
                assert lp in resim.robust, (
                    f"{circuit.name}: {lp.describe(circuit)} claimed but "
                    "not covered"
                )

    def test_every_target_accounted_for(self, small_circuits):
        for circuit in small_circuits:
            targets = set(non_rd_targets(circuit))
            result = generate_test_set(circuit, targets)
            accounted = set(result.covered) | set(result.untestable)
            assert accounted == targets


class TestCompaction:
    def test_simulation_never_increases_pattern_count(self):
        from repro.gen.adders import ripple_carry_adder

        circuit = ripple_carry_adder(3)
        targets = non_rd_targets(circuit)
        compact = generate_test_set(circuit, targets, fault_simulate=True)
        naive = generate_test_set(circuit, targets, fault_simulate=False)
        assert len(compact.pairs) <= len(naive.pairs)
        assert compact.coverage == naive.coverage
        # On an adder, compaction is substantial (many shared patterns).
        assert compact.compaction > 1.5

    def test_metrics(self, example_circuit):
        result = generate_test_set(example_circuit, non_rd_targets(example_circuit))
        assert 0.0 <= result.coverage <= 1.0
        assert result.elapsed >= 0.0
        text = str(result)
        assert "test pairs" in text and "robust coverage" in text

    def test_empty_targets(self, example_circuit):
        result = generate_test_set(example_circuit, [])
        assert result.coverage == 1.0
        assert not result.pairs


#: sha256 of each test set's pairs, coverage map and untestable list for
#: testgen's flow (a heu2 σ^π session classify collecting the accepted
#: paths, then ``generate_test_set``); the same values as the
#: ``testgen_sha256`` pins of the ``exact`` benchmark workload
TESTGEN_SHA256 = {
    "s432-rand": "d5374f637f4939a1ccd0aadb4e133fa7efa86382b6730e654e7f82628b8bb0b9",
    "apex-c": "354a3e5faf6831486f9a0522ff0df30f5388024f1dc1ff0999a0b3a3578726ef",
    "bw-d": "6ff5f79229f64e12b7c5e73dfddbd73d01cc5b8eb454d05406566c823d78f08f",
}


def _testgen_digest(test_set) -> str:
    def key(lp):
        return [list(lp.path.leads), lp.final_value]

    payload = {
        "pairs": [[list(v1), list(v2)] for v1, v2 in test_set.pairs],
        "covered": sorted([key(lp), index] for lp, index in test_set.covered.items()),
        "untestable": sorted(key(lp) for lp in test_set.untestable),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TESTGEN_SHA256))
def test_testgen_witnesses_are_pinned(name):
    """Every pair is a solver witness, so the digest pins the robust
    tests' search as well as the compaction around it."""
    circuit = get_circuit(name)
    session = CircuitSession(circuit)
    targets = []
    session.classify(
        Criterion.SIGMA_PI, sort=session.heuristic2_sort(),
        on_path=targets.append,
    )
    test_set = generate_test_set(circuit, targets)
    assert test_set.pairs and test_set.untestable
    assert _testgen_digest(test_set) == TESTGEN_SHA256[name]
