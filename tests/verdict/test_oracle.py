"""The SAT-exact verdict oracle against the brute-force ground truth.

``VerdictOracle.decide`` must agree with ``exact.exists_vector`` on
every logical path of every small circuit, for every criterion and
sort — SAT answers are only trustworthy because this differential
holds.  SAT witnesses must replay through the concrete simulator.
"""

import pytest

from repro.circuit.examples import mux_circuit, paper_example_circuit
from repro.classify.conditions import Criterion
from repro.classify.exact import exists_vector, satisfies_criterion
from repro.errors import VerdictError
from repro.gen.suite import get_circuit
from repro.paths.enumerate import enumerate_logical_paths
from repro.sorting import heuristic2_sort, pin_order_sort
from repro.verdict import SensitizationEncoder, VerdictOracle


def _sorts_for(circuit, criterion):
    if criterion is Criterion.SIGMA_PI:
        return [pin_order_sort(circuit), heuristic2_sort(circuit)]
    return [None]


class TestDifferential:
    @pytest.mark.parametrize("make", [paper_example_circuit, mux_circuit])
    @pytest.mark.parametrize(
        "criterion", [Criterion.FS, Criterion.NR, Criterion.SIGMA_PI]
    )
    def test_matches_brute_force_examples(self, make, criterion):
        circuit = make()
        for sort in _sorts_for(circuit, criterion):
            oracle = VerdictOracle(circuit)
            for lp in enumerate_logical_paths(circuit):
                verdict = oracle.decide(lp, criterion, sort)
                expected = exists_vector(circuit, criterion, lp, sort)
                assert verdict.in_set == expected, (lp, criterion)

    @pytest.mark.parametrize("name", ["c17", "apex-a"])
    def test_matches_brute_force_suite(self, name):
        circuit = get_circuit(name)
        sort = heuristic2_sort(circuit)
        oracle = VerdictOracle(circuit)
        for lp in enumerate_logical_paths(circuit):
            verdict = oracle.decide(lp, Criterion.SIGMA_PI, sort)
            expected = exists_vector(circuit, Criterion.SIGMA_PI, lp, sort)
            assert verdict.in_set == expected, lp


class TestWitnesses:
    def test_every_sat_verdict_carries_a_replayed_witness(self):
        circuit = get_circuit("c17")
        sort = heuristic2_sort(circuit)
        oracle = VerdictOracle(circuit)
        for lp in enumerate_logical_paths(circuit):
            verdict = oracle.decide(lp, Criterion.SIGMA_PI, sort)
            if verdict.in_set:
                assert verdict.witness is not None
                # the certificate is independently checkable
                assert satisfies_criterion(
                    circuit, Criterion.SIGMA_PI, lp, verdict.witness, sort
                )
            else:
                assert verdict.witness is None


class TestIncrementality:
    def test_one_solver_serves_all_paths(self):
        """The oracle keeps one solver across queries and its cumulative
        stats grow monotonically — the incremental CDCL contract."""
        circuit = get_circuit("apex-a")
        sort = heuristic2_sort(circuit)
        oracle = VerdictOracle(circuit)
        paths = list(enumerate_logical_paths(circuit))
        solves_seen = 0
        for lp in paths:
            oracle.decide(lp, Criterion.SIGMA_PI, sort)
            stats = oracle.solver_stats()
            assert stats["solves"] >= solves_seen
            solves_seen = stats["solves"]
        # some queries are trivially unsat (contradictory assumptions)
        # and never reach the solver, so solves <= paths
        assert 0 < solves_seen <= len(paths)

    def test_trivially_unsat_skips_the_solver(self):
        circuit = paper_example_circuit()
        oracle = VerdictOracle(circuit)
        before = oracle.solver_stats()["solves"]
        refuted = 0
        for lp in enumerate_logical_paths(circuit):
            if not oracle.decide(lp, Criterion.NR).in_set:
                refuted += 1
        assert refuted > 0  # paper example: NR refutes some paths
        # at least one refutation came from contradictory assumptions
        assert oracle.solver_stats()["solves"] - before < 8

    def test_budget_exhaustion_raises_verdict_error(self):
        """A blown conflict budget surfaces as VerdictError (taxonomy),
        never a bare RuntimeError, and leaves the oracle usable."""
        circuit = get_circuit("misex-f")
        sort = heuristic2_sort(circuit)
        oracle = VerdictOracle(circuit, max_conflicts=0)
        errors = 0
        for lp in enumerate_logical_paths(circuit):
            try:
                oracle.decide(lp, Criterion.SIGMA_PI, sort)
            except VerdictError:
                errors += 1
        assert errors >= 1  # misex-f needs search on at least one path
        # same oracle, restored budget: every path decides cleanly
        oracle.max_conflicts = 100_000
        for lp in enumerate_logical_paths(circuit):
            oracle.decide(lp, Criterion.SIGMA_PI, sort)


class TestEncoder:
    def test_sigma_requires_a_sort(self):
        circuit = paper_example_circuit()
        encoder = SensitizationEncoder(circuit)
        lp = next(iter(enumerate_logical_paths(circuit)))
        with pytest.raises(ValueError, match="sort"):
            encoder.query(lp, Criterion.SIGMA_PI, None)

    def test_assumptions_are_pure_units(self):
        """The per-path query adds no clauses — only unit assumptions
        over the base encoding, so one solver serves every path."""
        circuit = paper_example_circuit()
        encoder = SensitizationEncoder(circuit)
        num_clauses = len(encoder.encoding.cnf.clauses)
        for lp in enumerate_logical_paths(circuit):
            query = encoder.query(lp, Criterion.FS, None)
            if not query.trivially_unsat:
                assert query.assumptions
        assert len(encoder.encoding.cnf.clauses) == num_clauses
