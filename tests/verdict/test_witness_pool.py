"""The verdict oracle's witness pool against a pool-free reference.

A pooled answer skips the solver, so it is only trustworthy if it never
changes a membership bit and never returns an unchecked witness:

* **differential** — the pooled oracle and :class:`PoolFreeOracle`
  (the oracle body before the pool, kept in :mod:`tests.verdict.pool_free`)
  return the same ``in_set`` for every path under FS, NR and σ^π
  (Heuristic 2 and a seeded random sort), and small cases match
  ``exists_vector``;
* **certificates** — every SAT verdict's witness passes
  ``satisfies_criterion``, pool hits included;
* **corruption** — a pool word that names a witness the path's
  conditions reject raises :class:`VerdictError`;
* **eviction** — a pool filled past its cap keeps every word in step
  with the witnesses it holds.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.conditions import Criterion
from repro.classify.exact import criterion_holds, exists_vector, satisfies_criterion
from repro.errors import VerdictError
from repro.gen.suite import get_circuit
from repro.loading import as_core
from repro.obs import get_registry
from repro.paths.enumerate import enumerate_logical_paths
from repro.sorting import heuristic2_sort, random_sort
from repro.verdict import VerdictOracle, tightness_row
from repro.verdict import oracle as oracle_module

from tests.strategies import small_circuits
from tests.verdict.pool_free import PoolFreeOracle

S27 = Path(__file__).resolve().parents[2] / "examples" / "s27_timing.bench"


def _load(name):
    return as_core(S27) if name == "s27-core" else get_circuit(name)


def _cases(circuit, seed=7):
    yield Criterion.FS, None
    yield Criterion.NR, None
    yield Criterion.SIGMA_PI, heuristic2_sort(circuit)
    yield Criterion.SIGMA_PI, random_sort(circuit, seed=seed)


def _check_against_reference(circuit, brute_force, seed=7):
    """Pooled vs pool-free on every path and case; returns pool hits."""
    hits = get_registry().counter("verdict.pool_hits")
    start = hits.value
    paths = list(enumerate_logical_paths(circuit))
    for criterion, sort in _cases(circuit, seed):
        pooled = VerdictOracle(circuit)
        reference = PoolFreeOracle(circuit)
        for lp in paths:
            before = hits.value
            got = pooled.decide(lp, criterion, sort)
            want = reference.decide(lp, criterion, sort)
            where = (lp.describe(circuit), criterion.name)
            assert got.in_set == want.in_set, where
            if brute_force:
                assert got.in_set == exists_vector(circuit, criterion, lp, sort)
            if not got.in_set:
                assert got.witness is None, where
                continue
            assert satisfies_criterion(
                circuit, criterion, lp, got.witness, sort
            ), where
            if hits.value > before:  # a pool hit did no solver work
                assert (got.conflicts, got.decisions, got.learned_reuse) == (
                    0, 0, 0
                ), where
    return hits.value - start


def _assert_pool_consistent(pool):
    """Every word's bit ``i`` is slot ``i``'s value, and no bit outside
    the filled slots is set."""
    assert len(pool.entries) <= oracle_module.POOL_SIZE
    assert pool.live == (1 << len(pool.entries)) - 1
    for word in pool.words:
        assert word & ~pool.live == 0
    for slot, (_witness, values) in enumerate(pool.entries):
        for gate, var in enumerate(pool.gate_vars):
            assert (pool.words[var] >> slot) & 1 == values[gate], (slot, gate)


class TestDifferential:
    @pytest.mark.parametrize("name", ["c17", "apex-a", "misex-f", "s27-core"])
    def test_named_circuits_match_pool_free_oracle(self, name):
        circuit = _load(name)
        small = len(circuit.inputs) <= 8 and name != "apex-a"
        assert _check_against_reference(circuit, brute_force=small) > 0

    @settings(max_examples=25, deadline=None)
    @given(circuit=small_circuits(max_gates=10), seed=st.integers(0, 99))
    def test_random_circuits_match_pool_free_oracle(self, circuit, seed):
        _check_against_reference(circuit, brute_force=True, seed=seed)


class TestPoolIntegrity:
    def test_corrupted_pool_word_raises_and_returns_no_witness(self):
        circuit = get_circuit("c17")
        oracle = VerdictOracle(circuit)
        paths = list(enumerate_logical_paths(circuit))
        next(lp for lp in paths if oracle.decide(lp, Criterion.FS).in_set)
        ((_witness, values),) = oracle.pool.entries
        # a path whose conditions the pooled witness does not meet
        victim = next(
            lp for lp in paths
            if not criterion_holds(circuit, Criterion.FS, lp, values)
            and not oracle.encoder.query(lp, Criterion.FS).trivially_unsat
        )
        # make slot 0's bits claim that it meets every literal anyway
        for lit in oracle.encoder.query(victim, Criterion.FS).assumptions:
            if lit > 0:
                oracle.pool.words[lit] |= 1
            else:
                oracle.pool.words[-lit] &= ~1
        hits = get_registry().counter("verdict.pool_hits")
        before = hits.value
        with pytest.raises(VerdictError, match="pooled witness"):
            oracle.decide(victim, Criterion.FS)
        assert hits.value == before

    def test_filling_past_the_cap_leaves_no_stale_bit(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "POOL_SIZE", 3)
        circuit = get_circuit("misex-f")
        sat = get_registry().counter("verdict.sat")
        hits = get_registry().counter("verdict.pool_hits")
        solved_before = sat.value - hits.value
        oracle = VerdictOracle(circuit)
        reference = PoolFreeOracle(circuit)
        for lp in enumerate_logical_paths(circuit):
            for criterion in (Criterion.NR, Criterion.FS):
                got = oracle.decide(lp, criterion)
                assert got.in_set == reference.decide(lp, criterion).in_set
                _assert_pool_consistent(oracle.pool)
        # the ring wrapped many times over
        assert sat.value - hits.value - solved_before > 10 * 3
        assert len(oracle.pool.entries) == 3

    def test_pool_is_rewritten_in_ring_order(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "POOL_SIZE", 2)
        circuit = get_circuit("c17")
        pool = VerdictOracle(circuit).pool
        n = circuit.num_gates
        # slot 0 goes from all ones to all zeros: a stale bit would show
        for k, vals in enumerate([[1] * n, [g & 1 for g in range(n)], [0] * n]):
            pool.add((k,), vals)
        assert [w for w, _v in pool.entries] == [(2,), (1,)]
        assert pool.next_slot == 1
        _assert_pool_consistent(pool)


class TestTightnessRows:
    @pytest.mark.parametrize("name", ["c17", "apex-a", "s27-core"])
    def test_witness_replays_equal_exact_accepted(self, name):
        replays = get_registry().counter("verdict.witness_replays")
        before = replays.value
        row = tightness_row(_load(name), Criterion.SIGMA_PI, "heu2")
        assert row.witness_replays == row.exact_accepted
        assert replays.value - before == row.exact_accepted
