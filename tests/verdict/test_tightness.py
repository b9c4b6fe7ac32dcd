"""Tightness tables: invariants, determinism, store caching, SKIP rows.

The table is a result artifact: it must be byte-identical at any
``--jobs`` count and across cold/warm store runs, and every row must
satisfy the soundness chain ``exact <= approx <= total`` with one
replayed witness per SAT verdict.
"""

import hashlib

import pytest

from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import ClassifyError
from repro.experiments.supervisor import TaskRunner
from repro.gen.suite import get_circuit
from repro.obs import get_registry
from repro.store.db import ResultStore
from repro.verdict import (
    TightnessReport,
    TightnessRow,
    default_suite_circuits,
    run_tightness,
    tightness_row,
)
from repro.verdict.tightness import TIGHTNESS_SCHEMA

CIRCUITS = ["c17", "apex-a"]

#: sha256 of ``run_tightness().table_bytes()`` on the default suite:
#: twelve decided rows plus the s3540-mult and smid-mult budget SKIPs
DEFAULT_TABLE_SHA256 = (
    "b199dcd04e4bf878cb770088a1857fc1da73a1868f57286eaad72e0176df026f"
)


def _report(**kwargs) -> TightnessReport:
    circuits = [get_circuit(n) for n in kwargs.pop("names", CIRCUITS)]
    return run_tightness(circuits, Criterion.SIGMA_PI, "heu2", **kwargs)


class TestInvariants:
    def test_soundness_chain_and_certificates(self):
        report = _report()
        for row in report.rows:
            assert row.exact_accepted <= row.approx_accepted
            assert row.approx_accepted <= row.total_logical
            assert row.exact_rd_percent >= row.approx_rd_percent
            assert row.gap_percent >= 0.0
            assert row.witness_replays == row.exact_accepted
            assert not row.skipped

    def test_chunk_counts_the_replays_its_oracle_made(self, monkeypatch):
        """A chunk reports its oracle's replays, not one per SAT
        verdict: with the replay stubbed out it reports none."""
        from repro.verdict.oracle import VerdictOracle
        from repro.verdict.tightness import _verdict_chunk_task

        circuit = get_circuit("c17")
        paths = []
        CircuitSession(circuit).classify(
            Criterion.FS,
            on_path=lambda lp: paths.append((lp.path.leads, lp.final_value)),
        )
        payload = (circuit, "FS", None, paths)
        sat, replays, *_ = _verdict_chunk_task(payload)
        assert replays == sat > 0
        monkeypatch.setattr(VerdictOracle, "_certify", lambda self, *a: None)
        sat, replays, *_ = _verdict_chunk_task(payload)
        assert sat > 0
        assert replays == 0

    def test_row_counts_match_classifier(self):
        circuit = get_circuit("c17")
        row = tightness_row(circuit, Criterion.SIGMA_PI, "heu2")
        assert row.total_logical == 22
        assert row.approx_accepted == 22
        assert row.exact_accepted == 22  # c17 has no Lemma-2 gap

    def test_default_suite_is_bounded_by_inputs(self):
        names = default_suite_circuits(20)
        assert "c17" in names
        for name in names:
            assert len(get_circuit(name).inputs) <= 20
        assert default_suite_circuits(4) != names


class TestDeterminism:
    def test_byte_identical_across_jobs(self):
        serial = _report(runner=TaskRunner(jobs=1))
        fanned = _report(runner=TaskRunner(jobs=2))
        assert serial.table_bytes() == fanned.table_bytes()

    def test_solver_work_excluded_from_table(self):
        """Conflict/decision counters depend on chunking, so they live
        in to_dict() diagnostics but never in the deterministic table."""
        circuit = get_circuit("apex-a")
        row = tightness_row(circuit, Criterion.SIGMA_PI, "heu2")
        table = row.table_row()
        assert "conflicts" not in table
        assert "decisions" not in table
        assert "learned_reuse" not in table
        assert "elapsed" not in table
        diag = row.to_dict()
        assert set(table) < set(diag)


class TestStoreCaching:
    def test_cold_then_warm_is_byte_identical(self, tmp_path):
        store = str(tmp_path / "verdicts.sqlite")
        cold = _report(store=store)
        assert all(r.source == "computed" for r in cold.rows)
        warm = _report(store=store)
        assert all(r.source == "store" for r in warm.rows)
        assert cold.table_bytes() == warm.table_bytes()

    def test_store_hit_counter_increments(self, tmp_path):
        store = str(tmp_path / "verdicts.sqlite")
        circuit = get_circuit("c17")
        tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        counter = get_registry().counter("verdict.row_store_hits")
        before = counter.value
        row = tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        assert row.source == "store"
        assert counter.value == before + 1

    def test_tighter_budget_recomputes(self, tmp_path):
        """A cached row whose approx count exceeds the caller's budget
        must not satisfy the read — budget semantics are never-wrong."""
        store = str(tmp_path / "verdicts.sqlite")
        circuit = get_circuit("c17")
        tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        with pytest.raises(ClassifyError):
            tightness_row(
                circuit, Criterion.SIGMA_PI, "heu2",
                store=store, max_accepted=5,
            )

    @pytest.mark.parametrize(
        "criterion, sort, variant",
        [
            (Criterion.SIGMA_PI, "heu2",
             "SIGMA_PI|05b621f446c0c7c3b3613026c0149fc3"),
            (Criterion.NR, None, "NR|none"),
        ],
        ids=["sigma-heu2", "nr"],
    )
    def test_row_under_the_pinned_key_is_a_warm_hit(
        self, tmp_path, criterion, sort, variant
    ):
        """c17's tightness rows are keyed by these variant strings: a row
        a store already holds under them is served, not recomputed."""
        circuit = get_circuit("c17")
        cold = tightness_row(circuit, criterion, sort)
        store = str(tmp_path / "verdicts.sqlite")
        with ResultStore(store) as db:
            db.put(CircuitSession(circuit).fingerprint, "tightness", variant, {
                "schema": TIGHTNESS_SCHEMA,
                "total_logical": cold.total_logical,
                "approx_accepted": cold.approx_accepted,
                "exact_accepted": cold.exact_accepted,
                "replays": cold.witness_replays,
            })
        warm = tightness_row(circuit, criterion, sort, store=store)
        assert warm.source == "store"
        assert warm.table_row() == cold.table_row()

    def test_criteria_do_not_collide_in_store(self, tmp_path):
        store = str(tmp_path / "verdicts.sqlite")
        from repro.circuit.examples import paper_example_circuit

        circuit = paper_example_circuit()
        sigma = tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        nr = tightness_row(circuit, Criterion.NR, None, store=store)
        assert nr.source == "computed"  # distinct variant, no false hit
        assert (sigma.criterion, nr.criterion) == ("SIGMA_PI", "NR")


#: apex-a: FS^sup 166 > BUDGET >= LP^sup(sigma^pi, heu2) 136, so only
#: the Heuristic-2 FS pass is over budget
BUDGET = 150


def _spy_store_reads(monkeypatch) -> "list[tuple[str, str]]":
    """Record the ``(kind, variant)`` of every store read."""
    reads = []
    real_get = ResultStore.get

    def get(self, fingerprint, kind, variant=""):
        reads.append((kind, variant))
        return real_get(self, fingerprint, kind, variant)

    monkeypatch.setattr(ResultStore, "get", get)
    return reads


class TestSortBudget:
    """``max_accepted`` covers the Heuristic-2 FS/NR passes, cold and
    warm alike."""

    def test_apex_a_only_fs_is_over_budget(self):
        session = CircuitSession(get_circuit("apex-a"))
        assert session.classify(Criterion.FS).accepted > BUDGET
        sort = session.sort("heu2")
        sigma = session.classify(Criterion.SIGMA_PI, sort=sort).accepted
        assert sigma <= BUDGET

    def test_storeless_row_raises(self):
        with pytest.raises(ClassifyError):
            tightness_row(
                get_circuit("apex-a"), Criterion.SIGMA_PI, "heu2",
                max_accepted=BUDGET,
            )

    def test_warm_store_row_raises(self, tmp_path, monkeypatch):
        """Neither a stored sort nor a stored row within the budget may
        let the row past its over-budget FS pass."""
        store = str(tmp_path / "s.sqlite")
        circuit = get_circuit("apex-a")
        warm = CircuitSession(circuit, store=store)
        warm.classify(Criterion.SIGMA_PI, sort=warm.sort("heu2"))
        reads = _spy_store_reads(monkeypatch)
        with pytest.raises(ClassifyError):
            tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                          store=store, max_accepted=BUDGET)
        assert ("sort", "heu2") not in reads
        unbudgeted = tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                                   store=store)
        assert unbudgeted.approx_accepted <= BUDGET
        with pytest.raises(ClassifyError):
            tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                          store=store, max_accepted=BUDGET)

    def test_unbudgeted_warm_row_reads_sort_once(self, tmp_path, monkeypatch):
        store = str(tmp_path / "s.sqlite")
        circuit = get_circuit("apex-a")
        tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        reads = _spy_store_reads(monkeypatch)
        session = CircuitSession(circuit, store=store)
        row = tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                            session=session)
        assert row.source == "store"
        assert [kind for kind, _ in reads] == ["sort", "tightness"]
        assert reads[0] == ("sort", "heu2")
        assert (session.stats.store_hits, session.stats.store_misses) == (2, 0)

    def test_budgeted_warm_row_derives_sort_from_passes(
        self, tmp_path, monkeypatch
    ):
        """Under a budget the sort comes from the stored FS/NR entries,
        never from the stored sort, and the row matches a cold one."""
        store = str(tmp_path / "s.sqlite")
        circuit = get_circuit("apex-a")
        cold = tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                             max_accepted=200)
        tightness_row(circuit, Criterion.SIGMA_PI, "heu2", store=store)
        reads = _spy_store_reads(monkeypatch)
        warm = tightness_row(circuit, Criterion.SIGMA_PI, "heu2",
                             store=store, max_accepted=200)
        assert warm.source == "store"
        assert [kind for kind, _ in reads] == [
            "classify", "classify", "tightness"
        ]
        assert warm.table_row() == cold.table_row()


class TestDefaultSuite:
    def test_default_table_is_pinned(self):
        """Every decided row and both SKIP reasons, byte for byte; the
        two SKIP rows die in their budgeted Heu2 FS pass."""
        report = run_tightness()
        skips = {row.circuit: row.skipped for row in report.rows if row.skipped}
        assert sorted(skips) == ["s3540-mult", "smid-mult"]
        for reason in skips.values():
            assert reason.startswith("classifier accepted > 50000")
        digest = hashlib.sha256(report.table_bytes()).hexdigest()
        assert digest == DEFAULT_TABLE_SHA256


class TestSkipRows:
    def test_too_many_inputs_becomes_skip_row(self):
        report = _report(names=["c17", "s432-rand"], max_inputs=10)
        by_name = {row.circuit: row for row in report.rows}
        assert not by_name["c17"].skipped
        skip = by_name["s432-rand"]
        assert skip.source == "skipped"
        assert "inputs" in skip.skipped
        assert skip.exact_accepted == 0

    def test_budget_overflow_becomes_skip_row(self):
        report = _report(names=["c17", "apex-a"], max_accepted=30)
        by_name = {row.circuit: row for row in report.rows}
        assert not by_name["c17"].skipped  # 22 accepted <= 30
        assert by_name["apex-a"].skipped  # 136 accepted > 30

    def test_skip_rows_render_and_serialize(self):
        report = _report(names=["s432-rand"], max_inputs=10)
        assert "SKIP" in report.render()
        payload = report.table_payload()
        assert payload["decided"] == 0
        assert payload["rows"][0]["skipped"]


class TestReportShape:
    def test_table_payload_schema(self):
        report = _report(names=["c17"])
        payload = report.table_payload()
        assert payload["schema"] == 1
        assert payload["criterion"] == "SIGMA_PI"
        assert payload["sort"] == "heu2"
        assert payload["circuits"] == 1
        assert isinstance(report.rows[0], TightnessRow)

    def test_render_mentions_gap_columns(self):
        text = _report(names=["c17"]).render()
        assert "exact" in text
        assert "c17" in text

    def test_row_round_trips_through_to_dict(self):
        (row,) = _report(names=["c17"]).rows
        payload = row.to_dict()
        payload["fingerprint"] = "rdfp1:ignored"  # extra wire keys
        assert TightnessRow.from_dict(payload) == row
