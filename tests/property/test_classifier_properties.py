"""Property-based tests of the core soundness claims (Algorithm 2,
Lemma 1, Lemma 2) on random circuits."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import loading
from repro.classify.conditions import Criterion
from repro.classify.engine import check_logical_path, classify
from repro.classify.exact import exact_lp_sigma, exact_path_set
from repro.classify.session import CircuitSession
from repro.paths.enumerate import enumerate_logical_paths
from repro.sorting.heuristics import heuristic1_sort, random_sort
from repro.sorting.input_sort import InputSort

from tests.strategies import small_circuits


def _approx(circuit, criterion, sort=None):
    accepted = set()
    classify(circuit, criterion, sort=sort, on_path=accepted.add)
    return accepted


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_superset_soundness_fs_nr(circuit):
    for criterion in (Criterion.FS, Criterion.NR):
        assert exact_path_set(circuit, criterion) <= _approx(circuit, criterion)


@settings(max_examples=20, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_superset_soundness_sigma(circuit):
    sort = InputSort.pin_order(circuit)
    exact = exact_path_set(circuit, Criterion.SIGMA_PI, sort)
    assert exact <= _approx(circuit, Criterion.SIGMA_PI, sort)


@settings(max_examples=20, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_lemma2_equivalence(circuit):
    """Conditions (π1)-(π3) characterise exactly LP(σ^π)."""
    sort = heuristic1_sort(circuit)
    assert exact_path_set(circuit, Criterion.SIGMA_PI, sort) == exact_lp_sigma(
        circuit, sort
    )


@settings(max_examples=20, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_lemma1_hierarchy(circuit):
    t_set = exact_path_set(circuit, Criterion.NR)
    fs_set = exact_path_set(circuit, Criterion.FS)
    for sort in (InputSort.pin_order(circuit), heuristic1_sort(circuit)):
        sigma = exact_path_set(circuit, Criterion.SIGMA_PI, sort)
        assert t_set <= sigma <= fs_set


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits(max_gates=12))
def test_nr_accepted_subset_of_fs_accepted(circuit):
    """Monotonicity of the approximation: stronger conditions can only
    lose paths (this underpins Heuristic 2's non-negative measure)."""
    assert _approx(circuit, Criterion.NR) <= _approx(circuit, Criterion.FS)


S27 = Path(__file__).resolve().parents[2] / "examples" / "s27_timing.bench"


def _assert_superset_order(circuit, seeds):
    """NR^sup ⊆ LP^sup(σ^π) ⊆ FS^sup under every named sort and a
    seeded random sort per seed: Lemma 1's order for the supersets the
    classifier actually computes, which is what lets one budgeted FS
    pass bound the NR and σ^π passes that follow it."""
    session = CircuitSession(circuit)
    sorts = {kind: session.sort(kind) for kind in ("pin", "heu1", "heu2", "heu2inv")}
    for seed in seeds:
        sorts[f"random:{seed}"] = random_sort(circuit, seed=seed)
    nr = _approx(circuit, Criterion.NR)
    fs = _approx(circuit, Criterion.FS)
    for label, sort in sorts.items():
        sigma = _approx(circuit, Criterion.SIGMA_PI, sort)
        assert nr <= sigma <= fs, label


@settings(max_examples=25, deadline=None)
@given(circuit=small_circuits(max_gates=12), seed=st.integers(0, 2**16))
def test_sigma_between_nr_and_fs_supersets(circuit, seed):
    _assert_superset_order(circuit, [seed])


def test_sigma_between_supersets_on_s27_scan_core():
    _assert_superset_order(loading.as_core(S27), range(8))


@settings(max_examples=20, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_iterative_engine_agrees_with_per_path_check(circuit):
    """The implicit (iterative, prime-segment-pruned) enumeration and
    the explicit single-path checker are the same approximation: for
    every logical path of the circuit, membership in the accepted set
    equals ``check_logical_path``'s verdict, per criterion."""
    sort = heuristic1_sort(circuit)
    all_paths = list(enumerate_logical_paths(circuit))
    for criterion, s in (
        (Criterion.FS, None),
        (Criterion.NR, None),
        (Criterion.SIGMA_PI, sort),
    ):
        accepted = _approx(circuit, criterion, s)
        for lp in all_paths:
            assert (lp in accepted) == check_logical_path(
                circuit, criterion, lp, s
            ), (criterion, lp)
        # The DFS emits each accepted path exactly once.
        assert accepted <= set(all_paths)


@settings(max_examples=20, deadline=None)
@given(circuit=small_circuits(max_gates=10))
def test_session_reuse_preserves_results(circuit):
    """Back-to-back passes through one session (shared engine + cached
    tables) are indistinguishable from fresh per-call state — in either
    pass order."""
    session = CircuitSession(circuit)
    sort = InputSort.pin_order(circuit)
    plan = [
        (Criterion.SIGMA_PI, sort),
        (Criterion.FS, None),
        (Criterion.NR, None),
        (Criterion.FS, None),  # repeat: exercises the table cache
    ]
    for criterion, s in plan:
        cached: set = set()
        session.classify(criterion, sort=s, on_path=cached.add)
        assert cached == _approx(circuit, criterion, s), criterion
