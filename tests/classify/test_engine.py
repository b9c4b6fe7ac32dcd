"""Unit tests for the implicit-enumeration classifier."""

import pytest

from repro.classify.conditions import Criterion
from repro.classify.engine import check_logical_path, classify
from repro.paths.enumerate import enumerate_logical_paths
from repro.sorting.input_sort import InputSort


class TestClassifyBasics:
    def test_fs_on_example(self, example_circuit):
        result = classify(example_circuit, Criterion.FS)
        assert result.total_logical == 8
        assert result.accepted == 8  # every example path is FS
        assert result.rd_count == 0

    def test_nr_on_example(self, example_circuit):
        result = classify(example_circuit, Criterion.NR)
        assert result.accepted == 5  # T(C) of the example

    def test_sigma_requires_sort(self, example_circuit):
        with pytest.raises(ValueError):
            classify(example_circuit, Criterion.SIGMA_PI)

    def test_max_accepted_guard(self, example_circuit):
        with pytest.raises(RuntimeError):
            classify(example_circuit, Criterion.FS, max_accepted=2)

    def test_elapsed_recorded(self, example_circuit):
        assert classify(example_circuit, Criterion.FS).elapsed >= 0.0


class TestAcceptedPathsCallback:
    def test_on_path_yields_each_accepted(self, example_circuit):
        seen = []
        classify(example_circuit, Criterion.NR, on_path=seen.append)
        assert len(seen) == 5
        for lp in seen:
            lp.path.validate(example_circuit)

    def test_callback_matches_single_path_checker(self, small_circuits):
        for circuit in small_circuits:
            for criterion in (Criterion.FS, Criterion.NR):
                accepted = set()
                classify(circuit, criterion, on_path=accepted.add)
                for lp in enumerate_logical_paths(circuit):
                    assert check_logical_path(circuit, criterion, lp) == (
                        lp in accepted
                    )


class TestLeadCounts:
    def test_lead_counts_disabled_by_default(self, example_circuit):
        assert classify(example_circuit, Criterion.FS).lead_ctrl_counts == []

    def test_lead_counts_match_manual_accumulation(self, small_circuits):
        from repro.circuit.gates import controlling_value, has_controlling_value
        from repro.paths.path import LogicalPath

        for circuit in small_circuits:
            accepted = []
            result = classify(
                circuit, Criterion.FS, collect_lead_counts=True,
                on_path=accepted.append,
            )
            manual = [0] * circuit.num_leads
            for lp in accepted:
                value = lp.final_value
                for lead in lp.path.leads:
                    dst = circuit.lead_dst(lead)
                    gtype = circuit.gate_type(dst)
                    if (
                        has_controlling_value(gtype)
                        and value == controlling_value(gtype)
                    ):
                        manual[lead] += 1
                    from repro.circuit.gates import is_inverting

                    if is_inverting(gtype):
                        value = 1 - value
            assert result.lead_ctrl_counts == manual


class TestLeadCountsAtScale:
    """Lead counts are credited when DFS frames pop, so a subtree the
    memo revisits many times must still credit every accepted path.
    s1355-par reuses the memo heavily (13,616 accepted paths);
    s2670-rand's FS pass accepts 49,088."""

    @pytest.mark.parametrize("name", ["s1355-par", "s2670-rand"])
    @pytest.mark.parametrize("criterion", [Criterion.FS, Criterion.NR])
    def test_matches_reference(self, name, criterion):
        from repro.classify.reference import classify_reference
        from repro.gen.suite import get_circuit

        circuit = get_circuit(name)
        got = classify(circuit, criterion, collect_lead_counts=True)
        want = classify_reference(circuit, criterion, collect_lead_counts=True)
        assert got.accepted == want.accepted
        assert got.edges_visited == want.edges_visited
        assert got.lead_ctrl_counts == want.lead_ctrl_counts
        assert any(got.lead_ctrl_counts)


class TestSigmaPiOnExample:
    def test_pin_order_accepts_all(self, example_circuit):
        sort = InputSort.pin_order(example_circuit)
        assert classify(example_circuit, Criterion.SIGMA_PI, sort=sort).accepted == 8

    def test_optimal_sort_accepts_five(self, example_circuit):
        from repro.experiments.figures import example3_sort

        sort = example3_sort(example_circuit)
        assert classify(example_circuit, Criterion.SIGMA_PI, sort=sort).accepted == 5


class TestCheckLogicalPath:
    def test_rejects_non_path(self, example_circuit):
        from repro.paths.path import LogicalPath, PhysicalPath

        g_and = example_circuit.gate_by_name("g_and")
        # A lead path ending inside the circuit (no PO) is invalid.
        inner = PhysicalPath((example_circuit.lead_index(g_and, 0),))
        with pytest.raises(ValueError):
            check_logical_path(example_circuit, Criterion.FS, LogicalPath(inner, 1))

    def test_known_rejected_path(self, example_circuit):
        from repro.paths.path import LogicalPath

        # bA rising is FS but not NR (side conditions c=1 at AND vs c=0 at OR).
        for lp in enumerate_logical_paths(example_circuit):
            if lp.describe(example_circuit) == "b -> g_and -> g_or -> out [0->1]":
                assert check_logical_path(example_circuit, Criterion.FS, lp)
                assert not check_logical_path(example_circuit, Criterion.NR, lp)
