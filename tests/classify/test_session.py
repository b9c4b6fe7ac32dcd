"""CircuitSession: shared per-circuit caches for classification runs."""

import pytest

from repro.circuit.examples import paper_example_circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import classify
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError
from repro.experiments.harness import run_table1_row
from repro.gen.random_logic import random_dag
from repro.sorting.heuristics import heuristic2_analysis
from repro.sorting.input_sort import InputSort


@pytest.fixture
def circuit():
    return paper_example_circuit()


class TestCaching:
    def test_counts_computed_once(self, circuit):
        session = CircuitSession(circuit)
        first = session.counts
        assert session.counts is first
        session.classify(Criterion.FS)
        session.classify(Criterion.NR)
        assert session.stats.count_paths_calls == 1

    def test_tables_cached_per_criterion_and_sort(self, circuit):
        session = CircuitSession(circuit)
        sort = InputSort.pin_order(circuit)
        session.classify(Criterion.FS)
        session.classify(Criterion.FS)
        session.classify(Criterion.SIGMA_PI, sort=sort)
        # An equal-ranks sort object must hit the same cache entry.
        session.classify(Criterion.SIGMA_PI, sort=InputSort.pin_order(circuit))
        assert session.stats.tables_built == 2
        assert session.stats.tables_reused == 2
        assert session.stats.tables_hit_rate == 0.5
        # A genuinely different sort builds a new entry.
        session.classify(Criterion.SIGMA_PI, sort=sort.inverted())
        assert session.stats.tables_built == 3

    def test_engine_restored_after_max_accepted_abort(self, circuit):
        session = CircuitSession(circuit)
        with pytest.raises(RuntimeError):
            session.classify(Criterion.FS, max_accepted=1)
        # The session stays usable and correct after the abort.
        fresh = classify(circuit, Criterion.FS)
        again = session.classify(Criterion.FS)
        assert again.accepted == fresh.accepted

    def test_budget_abort_raises_classify_error_and_is_counted(
        self, circuit
    ):
        from repro.errors import ClassifyError, ReproError

        session = CircuitSession(circuit)
        with pytest.raises(ClassifyError):
            session.classify(Criterion.FS, max_accepted=1)
        assert session.stats.budget_aborts == 1
        # the taxonomy makes it catchable as the library-wide base too
        with pytest.raises(ReproError):
            session.classify(Criterion.FS, max_accepted=1)
        assert session.stats.budget_aborts == 2
        session.classify(Criterion.FS)  # clean pass: no extra abort
        assert session.stats.budget_aborts == 2


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_session_matches_fresh_classify(self, seed):
        circuit = random_dag(5, 16, seed=seed + 600)
        session = CircuitSession(circuit)
        sort = InputSort.pin_order(circuit)
        for criterion, s in (
            (Criterion.FS, None),
            (Criterion.NR, None),
            (Criterion.SIGMA_PI, sort),
        ):
            fresh_paths: set = set()
            fresh = classify(
                circuit, criterion, sort=s,
                collect_lead_counts=True, on_path=fresh_paths.add,
            )
            cached_paths: set = set()
            cached = session.classify(
                criterion, sort=s,
                collect_lead_counts=True, on_path=cached_paths.add,
            )
            assert cached.accepted == fresh.accepted
            assert cached.total_logical == fresh.total_logical
            assert cached.lead_ctrl_counts == fresh.lead_ctrl_counts
            assert cached.edges_visited == fresh.edges_visited
            assert cached_paths == fresh_paths

    def test_classify_session_kwarg_routes_through_session(self, circuit):
        session = CircuitSession(circuit)
        result = classify(circuit, Criterion.FS, session=session)
        assert result.accepted == classify(circuit, Criterion.FS).accepted
        assert session.stats.classify_passes == 1

    def test_classify_rejects_foreign_session(self, circuit):
        other = CircuitSession(random_dag(4, 8, seed=1))
        with pytest.raises(ValueError, match="different circuit"):
            classify(circuit, Criterion.FS, session=other)
        with pytest.raises(ValueError, match="different circuit"):
            heuristic2_analysis(circuit, session=other)

    def test_classify_accepts_precomputed_counts(self, circuit):
        session = CircuitSession(circuit)
        result = classify(circuit, Criterion.FS, counts=session.counts)
        assert result.total_logical == session.counts.total_logical


class TestSortingConvenience:
    def test_session_heuristic_sorts_match_module_functions(self, circuit):
        from repro.sorting.heuristics import heuristic1_sort, heuristic2_sort

        session = CircuitSession(circuit)
        assert session.heuristic1_sort().ranks == heuristic1_sort(circuit).ranks
        assert session.heuristic2_sort().ranks == heuristic2_sort(circuit).ranks
        assert session.stats.count_paths_calls == 1

    def test_sort_resolves_every_named_kind(self, circuit):
        from repro.sorting.heuristics import heuristic1_sort, heuristic2_sort

        session = CircuitSession(circuit)
        heu2 = heuristic2_sort(circuit)
        expected = {
            "pin": InputSort.pin_order(circuit),
            "heu1": heuristic1_sort(circuit),
            "heu2": heu2,
            "heu2inv": heu2.inverted(),
        }
        for kind, sort in expected.items():
            assert session.sort(kind).ranks == sort.ranks, kind
        with pytest.raises(ValueError, match="unknown sort"):
            session.sort("random")

    def test_sort_budget_covers_heuristic2_passes(self, circuit):
        """An FS^sup over the budget aborts the sort itself; pin and
        heu1 run no pass, so the budget cannot touch them."""
        session = CircuitSession(circuit)
        fs = session.classify(Criterion.FS).accepted
        for kind in ("heu2", "heu2inv"):
            with pytest.raises(ClassifyError):
                session.sort(kind, max_accepted=fs - 1)
        assert session.sort("heu2", max_accepted=fs).ranks == (
            session.sort("heu2").ranks
        )
        for kind in ("pin", "heu1"):
            session.sort(kind, max_accepted=0)


def _counting(monkeypatch, modules):
    """Patch count_paths in every importing namespace; return call list."""
    calls = []
    import repro.paths.count as count_mod

    real = count_mod.count_paths

    def counted(c):
        calls.append(c.name)
        return real(c)

    for module in modules:
        monkeypatch.setattr(module, "count_paths", counted)
    return calls


def test_table1_row_runs_count_paths_exactly_once(monkeypatch, circuit):
    """The whole Table-I pipeline (FS + NR + 3 SIGMA_PI passes + both
    sorts) must share one exact path count via the session."""
    from repro.classify import engine as engine_mod
    from repro.classify import session as session_mod
    from repro.sorting import heuristics as heuristics_mod

    calls = _counting(
        monkeypatch, [engine_mod, session_mod, heuristics_mod]
    )
    session = CircuitSession(circuit)
    row = run_table1_row(circuit, session=session)
    assert calls == [circuit.name]
    assert session.stats.count_paths_calls == 1
    assert session.stats.classify_passes == 5
    assert row.check_expected_shape() == []
