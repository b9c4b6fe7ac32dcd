"""CircuitSession: shared per-circuit caches for classification runs."""

import pytest
from hypothesis import given, settings

from repro.circuit.examples import paper_example_circuit
from repro.classify.conditions import Criterion
from repro.classify.engine import classify
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError
from repro.experiments.harness import run_table1_row
from repro.gen.random_logic import random_dag
from repro.gen.suite import get_circuit
from repro.obs import get_registry
from repro.sorting.heuristics import heuristic2_analysis
from repro.sorting.input_sort import InputSort
from tests.strategies import small_circuits


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


def _assert_memo_shared_exactly(circuit):
    """Run a Table-I-like mix of passes on one session (one shared settle
    memo) and compare every pass with a sessionless ``classify`` (a
    fresh memo per call)."""
    sorts = CircuitSession(circuit)
    heu1 = sorts.sort("heu1")
    heu2 = sorts.sort("heu2")
    session = CircuitSession(circuit)

    def same(criterion, sort=None, with_paths=False):
        fresh_paths: list = []
        fresh = classify(
            circuit, criterion, sort=sort, collect_lead_counts=True,
            on_path=fresh_paths.append if with_paths else None,
        )
        shared_paths: list = []
        shared = session.classify(
            criterion, sort=sort, collect_lead_counts=True,
            on_path=shared_paths.append if with_paths else None,
        )
        assert shared.accepted == fresh.accepted
        assert shared.edges_visited == fresh.edges_visited
        assert shared.lead_ctrl_counts == fresh.lead_ctrl_counts
        assert shared_paths == fresh_paths
        return fresh

    full_fs = classify(circuit, Criterion.FS)
    if full_fs.accepted:
        # an aborted pass leaves its settled states behind
        with pytest.raises(ClassifyError):
            session.classify(Criterion.FS, max_accepted=full_fs.accepted // 2)
    same(Criterion.FS)
    same(Criterion.NR)
    same(Criterion.SIGMA_PI, heu1)
    same(Criterion.SIGMA_PI, heu2)
    same(Criterion.SIGMA_PI, heu2.inverted())
    same(Criterion.SIGMA_PI, heu1, with_paths=True)


class TestSharedMemo:
    """Every pass of a session settles through one memo keyed by interned
    mask pairs; a hit left by another pass must be exact."""

    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_small_circuits(self, circuit):
        _assert_memo_shared_exactly(circuit)

    def test_s432_rand(self):
        _assert_memo_shared_exactly(get_circuit("s432-rand"))

    def test_equal_masks_share_one_entry_id(self):
        session = CircuitSession(get_circuit("s432-rand"))
        fs = session.tables(Criterion.FS)
        nr = session.tables(Criterion.NR)
        ids = {}
        for tables in (fs, nr):
            for row in tables.branches:
                for e in row:
                    if e is not None and len(e) > 1:
                        assert ids.setdefault((e[0], e[1]), e[7]) == e[7]
        assert len(set(ids.values())) == len(ids)


def _implied_passes():
    return get_registry().counter("classify.implied_passes").value


def _edges_counter():
    return get_registry().counter("engine.edges_visited").value


class TestLemma1Sandwich:
    """A SIGMA_PI pass is answered from the session's FS and NR passes
    when they agree (c17's do), and runs the DFS in every other case."""

    @pytest.fixture
    def agreeing(self):
        session = CircuitSession(get_circuit("c17"))
        fs = session.classify(Criterion.FS, collect_lead_counts=True)
        nr = session.classify(Criterion.NR, collect_lead_counts=True)
        assert (fs.accepted, fs.edges_visited) == (nr.accepted, nr.edges_visited)
        return session, fs

    def test_implied_pass_builds_no_tables_and_counts_no_edges(self, agreeing):
        session, fs = agreeing
        sort = InputSort.pin_order(session.circuit)
        built, implied, edges = (
            session.stats.tables_built, _implied_passes(), _edges_counter()
        )
        result = session.classify(
            Criterion.SIGMA_PI, sort=sort, collect_lead_counts=True
        )
        assert session.stats.tables_built == built
        assert _implied_passes() == implied + 1
        assert _edges_counter() == edges
        assert session.stats.classify_passes == 3
        fresh = classify(
            session.circuit, Criterion.SIGMA_PI, sort=sort,
            collect_lead_counts=True,
        )
        assert result.accepted == fresh.accepted == fs.accepted
        assert result.edges_visited == fresh.edges_visited
        assert result.lead_ctrl_counts == fresh.lead_ctrl_counts
        assert result.criterion is Criterion.SIGMA_PI

    def test_on_path_pass_still_runs_the_dfs(self, agreeing):
        session, _ = agreeing
        sort = InputSort.pin_order(session.circuit)
        implied = _implied_passes()
        streamed: list = []
        result = session.classify(
            Criterion.SIGMA_PI, sort=sort, on_path=streamed.append
        )
        expected: list = []
        classify(session.circuit, Criterion.SIGMA_PI, sort=sort,
                 on_path=expected.append)
        assert streamed == expected
        assert len(streamed) == result.accepted
        assert session.stats.tables_built == 3
        assert _implied_passes() == implied

    def test_budget_below_fs_still_aborts(self, agreeing):
        session, fs = agreeing
        sort = InputSort.pin_order(session.circuit)
        with pytest.raises(ClassifyError):
            session.classify(
                Criterion.SIGMA_PI, sort=sort, max_accepted=fs.accepted - 1
            )
        assert session.stats.budget_aborts == 1
        # a budget the held passes fit is answered without a DFS
        implied = _implied_passes()
        result = session.classify(
            Criterion.SIGMA_PI, sort=sort, max_accepted=fs.accepted
        )
        assert result.accepted == fs.accepted
        assert _implied_passes() == implied + 1

    def test_missing_sort_still_raises(self, agreeing):
        session, _ = agreeing
        with pytest.raises(ValueError, match="requires an input sort"):
            session.classify(Criterion.SIGMA_PI)

    def test_lead_counts_need_an_fs_pass_that_carries_them(self):
        session = CircuitSession(get_circuit("c17"))
        session.classify(Criterion.FS)
        session.classify(Criterion.NR)
        sort = InputSort.pin_order(session.circuit)
        implied = _implied_passes()
        result = session.classify(
            Criterion.SIGMA_PI, sort=sort, collect_lead_counts=True
        )
        assert _implied_passes() == implied
        assert result.lead_ctrl_counts == classify(
            session.circuit, Criterion.SIGMA_PI, sort=sort,
            collect_lead_counts=True,
        ).lead_ctrl_counts

    def test_fs_alone_builds_sigma_tables(self):
        session = CircuitSession(get_circuit("c17"))
        session.classify(Criterion.FS)
        implied = _implied_passes()
        session.classify(
            Criterion.SIGMA_PI, sort=InputSort.pin_order(session.circuit)
        )
        assert session.stats.tables_built == 2
        assert _implied_passes() == implied

    def test_fs_differing_from_nr_builds_sigma_tables(self, circuit):
        session = CircuitSession(circuit)
        fs = session.classify(Criterion.FS)
        nr = session.classify(Criterion.NR)
        assert fs.accepted != nr.accepted
        implied = _implied_passes()
        sort = InputSort.pin_order(circuit)
        result = session.classify(Criterion.SIGMA_PI, sort=sort)
        assert session.stats.tables_built == 3
        assert _implied_passes() == implied
        assert result.accepted == classify(
            circuit, Criterion.SIGMA_PI, sort=sort
        ).accepted

    def test_aborted_pass_is_not_held(self):
        session = CircuitSession(get_circuit("c17"))
        session.classify(Criterion.FS)
        with pytest.raises(ClassifyError):
            session.classify(Criterion.NR, max_accepted=1)
        implied = _implied_passes()
        session.classify(
            Criterion.SIGMA_PI, sort=InputSort.pin_order(session.circuit)
        )
        assert _implied_passes() == implied

    def test_implied_pass_lands_in_the_store(self, tmp_path):
        from repro.store.db import ResultStore

        circuit = get_circuit("c17")
        sort = InputSort.pin_order(circuit)
        with ResultStore(tmp_path / "s.sqlite") as store:
            cold = CircuitSession(circuit, store=store)
            cold.classify(Criterion.FS, collect_lead_counts=True)
            cold.classify(Criterion.NR, collect_lead_counts=True)
            implied = _implied_passes()
            first = cold.classify(
                Criterion.SIGMA_PI, sort=sort, collect_lead_counts=True
            )
            assert _implied_passes() == implied + 1
            variant = cold._classify_variant(Criterion.SIGMA_PI, sort)
            payload = store.get(cold.fingerprint, "classify", variant)
            assert payload["accepted"] == first.accepted
            assert payload["edges_visited"] == first.edges_visited

            warm = CircuitSession(circuit, store=store)
            again = warm.classify(
                Criterion.SIGMA_PI, sort=sort, collect_lead_counts=True
            )
            assert warm.stats.store_hits == 1
            assert warm.stats.tables_built == 0
            assert warm.stats.count_paths_calls == 0
            assert store.get(warm.fingerprint, "classify", variant) == payload
        assert (again.accepted, again.edges_visited, again.lead_ctrl_counts) == (
            first.accepted, first.edges_visited, first.lead_ctrl_counts
        )


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
