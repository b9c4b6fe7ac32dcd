"""Signoff correctness: differential against brute force, fan-out
equivalence, job-count determinism, the store contract, and what a
query leaves in memory."""

import gc

import pytest

from repro.circuit.sequential import S27_LIKE, parse_sequential_bench
from repro.delaytest.testability import is_robustly_testable
from repro.errors import SignoffError
from repro.experiments.supervisor import TaskRunner
from repro.gen.suite import get_circuit
from repro.paths.enumerate import enumerate_logical_paths
from repro.signoff import (
    DEFAULT_K,
    SignoffReport,
    merge_rows,
    signoff,
    signoff_core,
)
from repro.signoff.query import row_from_path
from repro.timing.annotate import materialize_delays
from repro.timing.delays import random_delays
from repro.timing.pathdelay import logical_path_delay
from repro.verdict.encode import SensitizationEncoder


def brute_force_rows(circuit, delays, k=None, slack=None):
    """The spec: every robustly-testable logical path, slowest first in
    canonical order, truncated/thresholded like the query."""
    rows = []
    for lp in enumerate_logical_paths(circuit):
        if not is_robustly_testable(circuit, lp):
            continue
        delay = logical_path_delay(circuit, lp, delays)
        if slack is not None and delay < slack:
            continue
        rows.append(row_from_path(circuit, delay, lp))
    rows.sort(key=lambda row: row.sort_key())
    if k is not None:
        rows = rows[:k]
    return rows


class TestDifferential:
    def test_k_mode_matches_brute_force(self, small_circuits):
        for circuit in small_circuits:
            for seed in range(2):
                delays = random_delays(circuit, seed=seed)
                for k in (1, 3, 100):
                    rows, _counters, source = signoff_core(
                        circuit, delays, k=k
                    )
                    assert source == "computed"
                    assert rows == brute_force_rows(circuit, delays, k=k), (
                        circuit.name, seed, k
                    )

    def test_slack_mode_matches_brute_force(self, small_circuits):
        for circuit in small_circuits:
            delays = random_delays(circuit, seed=5)
            all_rows = brute_force_rows(circuit, delays, slack=0.0)
            cut = (
                all_rows[len(all_rows) // 2].delay if all_rows else 1.0
            )
            for slack in (0.0, cut):
                rows, _counters, source = signoff_core(
                    circuit, delays, slack=slack
                )
                assert rows == brute_force_rows(
                    circuit, delays, slack=slack
                ), (circuit.name, slack)

    def test_query_validation(self, example_circuit):
        with pytest.raises(ValueError, match="not both"):
            signoff_core(example_circuit, k=3, slack=1.0)
        with pytest.raises(ValueError, match=">= 1"):
            signoff_core(example_circuit, k=0)
        for slack in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                signoff_core(example_circuit, slack=slack)
            with pytest.raises(ValueError, match="finite"):
                signoff(example_circuit, slack=slack)

    def test_candidate_budget_guard(self, example_circuit):
        delays = random_delays(example_circuit)
        with pytest.raises(SignoffError, match="candidate"):
            signoff_core(example_circuit, delays, slack=0.0, max_candidates=1)


class TestScanFanOut:
    @pytest.fixture
    def scan(self):
        return parse_sequential_bench(S27_LIKE, name="s27")

    def test_domain_fanout_equals_whole_core(self, scan):
        delays = materialize_delays(scan.core, None, seed=0)
        whole_rows, _c, _s = signoff_core(scan.core, delays, k=8)
        report = signoff(scan, k=8, seed=0)
        assert list(report.rows) == whole_rows
        assert report.mode == "k"
        assert set(report.domains) == {
            scan.core.gate_name(po) for po in scan.core.outputs
        }

    def test_jobs_do_not_change_bytes(self, scan):
        serial = signoff(scan, k=6, seed=3, runner=TaskRunner(jobs=1))
        fanned = signoff(scan, k=6, seed=3, runner=TaskRunner(jobs=2))
        assert serial.table_bytes() == fanned.table_bytes()

    def test_default_k(self, scan):
        report = signoff(scan)
        assert report.k == DEFAULT_K
        assert isinstance(report, SignoffReport)

    def test_slack_mode_over_domains(self, scan):
        delays = materialize_delays(scan.core, None, seed=0)
        whole_rows, _c, _s = signoff_core(scan.core, delays, slack=6.0)
        report = signoff(scan, slack=6.0, seed=0)
        assert list(report.rows) == whole_rows


class TestStore:
    def test_cold_then_warm_identical(self, tmp_path, small_circuits):
        store = str(tmp_path / "signoff.sqlite")
        for circuit in small_circuits:
            delays = random_delays(circuit, seed=2)
            cold_rows, _c, cold_src = signoff_core(
                circuit, delays, k=5, store=store
            )
            warm_rows, warm_counters, warm_src = signoff_core(
                circuit, delays, k=5, store=store
            )
            assert (cold_src, warm_src) == ("computed", "store")
            assert warm_rows == cold_rows
            assert warm_counters["candidates"] == 0  # no enumeration

    def test_key_separates_delays_and_query(self, tmp_path, example_circuit):
        store = str(tmp_path / "signoff.sqlite")
        delays = random_delays(example_circuit, seed=0)
        other = random_delays(example_circuit, seed=9)
        signoff_core(example_circuit, delays, k=5, store=store)
        _rows, _c, src = signoff_core(example_circuit, other, k=5, store=store)
        assert src == "computed"  # different delays: different key
        _rows, _c, src = signoff_core(example_circuit, delays, k=2, store=store)
        assert src == "computed"  # different k: different key
        _rows, _c, src = signoff_core(example_circuit, delays, k=5, store=store)
        assert src == "store"

    def test_report_store_provenance(self, tmp_path):
        scan = parse_sequential_bench(S27_LIKE, name="s27")
        store = str(tmp_path / "signoff.sqlite")
        cold = signoff(scan, k=4, store=store)
        warm = signoff(scan, k=4, store=store)
        assert set(cold.sources.values()) == {"computed"}
        assert set(warm.sources.values()) == {"store"}
        assert warm.table_bytes() == cold.table_bytes()


class TestMemory:
    def test_no_encoder_outlives_the_query(self):
        """Each domain's cone circuit and its cached sensitization
        encoder are freed by reference counting alone, so the cones'
        CNFs and template solvers do not wait for the cyclic collector."""

        def encoders():
            return sum(
                isinstance(obj, SensitizationEncoder)
                for obj in gc.get_objects()
            )

        circuit = get_circuit("xcmp16")
        gc.collect()
        gc.disable()
        try:
            before = encoders()
            report = signoff(circuit, k=100, seed=3)
            assert report.rows
            assert encoders() == before
        finally:
            gc.enable()


class TestMergeRows:
    def test_merge_is_sort_then_truncate(self, small_circuits):
        for circuit in small_circuits:
            delays = random_delays(circuit, seed=4)
            rows = brute_force_rows(circuit, delays)
            split = [rows[0::2], rows[1::2]]
            assert list(merge_rows(split, 3)) == rows[:3]
            assert list(merge_rows(split, None)) == rows
