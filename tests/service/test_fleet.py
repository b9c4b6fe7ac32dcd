"""The service fleet end to end: fingerprint routing, single-flight
coalescing, admission control, deadline propagation, merged telemetry.
(Worker-crash and wedge scenarios live in tests/chaos/test_fleet.py.)"""

import json
import threading
from pathlib import Path

import pytest

from repro.circuit.bench import write_bench
from repro.errors import RemoteError
from repro.gen.suite import get_circuit
from repro.obs import get_registry
from repro.service.client import RetryPolicy, ServiceClient
from repro.store.fingerprint import canonical_form

from tests.service.fleet_harness import FleetHarness, stable_result

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    harness = FleetHarness(
        workers=2, health_interval=0.2, backoff_base=0.05
    )
    harness.start(
        str(tmp_path_factory.mktemp("fleet") / "fleet.sock")
    )
    yield harness
    harness.stop()


def connect(harness):
    return ServiceClient.connect(harness.address, retry=RetryPolicy())


class TestBasics:
    def test_ping_identifies_fleet(self, fleet):
        with connect(fleet) as client:
            result = client.ping()
        assert result["server"] == "repro-rd-fleet"
        assert result["workers"] == 2

    def test_classify_answers_like_the_plain_daemon(self, fleet):
        with connect(fleet) as client:
            result = client.classify(circuit="c17")
        assert result["name"] == "c17"
        assert result["total_logical"] == 22
        assert result["coalesced"] is False
        assert result["worker"] in (0, 1)

    def test_routing_matches_the_hash_ring(self, fleet):
        """Every circuit lands on the shard its fingerprint hashes to —
        and therefore always on the *same* shard."""
        with connect(fleet) as client:
            for name in ("c17", "s499-ecc", "xcmp16", "xprienc16"):
                fingerprint = canonical_form(get_circuit(name)).fingerprint
                expected = fleet.server.ring.route(fingerprint)
                result = client.classify(circuit=name, criterion="fs")
                assert result["worker"] == expected
                assert result["fingerprint"] == fingerprint

    def test_bad_input_fails_fast_at_the_frontend(self, fleet):
        with connect(fleet) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(circuit="no-such-circuit")
            assert exc_info.value.error_type == "CircuitError"
            with pytest.raises(RemoteError) as exc_info:
                client.classify(bench="y = AND(a b\n")
            assert exc_info.value.error_type == "BenchParseError"
            # the connection survives both
            assert client.ping()["server"] == "repro-rd-fleet"

    def test_start_event_carries_worker_and_shrunk_deadline(self, fleet):
        events = []
        with connect(fleet) as client:
            result = client.classify(
                circuit="c17", deadline=30.0, on_event=events.append
            )
        assert result["total_logical"] == 22
        assert [e["event"] for e in events] == ["start"]
        assert events[0]["worker"] == result["worker"]
        # the front-end forwarded the *remaining* budget
        assert 0 < events[0]["deadline"] <= 30.0

    def test_exhausted_deadline_is_a_structured_timeout(self, fleet):
        with connect(fleet) as client:
            with pytest.raises(RemoteError) as exc_info:
                client.classify(circuit="c17", deadline=1e-9)
        assert exc_info.value.error_type == "TaskTimeout"


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_computation(
        self, fleet
    ):
        registry = get_registry()
        hits_before = registry.counter("fleet.coalesce_hits").value
        leaders_before = registry.counter("fleet.coalesce_leaders").value
        count = 4
        barrier = threading.Barrier(count)
        results: list = [None] * count

        def worker(i):
            with connect(fleet) as client:
                barrier.wait()
                results[i] = client.classify(circuit="s499-ecc")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(r is not None for r in results)
        coalesced = [r for r in results if r["coalesced"]]
        assert len(coalesced) == count - 1
        # byte-identical answers once run-varying keys are stripped
        stable = {str(sorted(stable_result(r).items())) for r in results}
        assert len(stable) == 1
        assert (
            registry.counter("fleet.coalesce_hits").value - hits_before
            == count - 1
        )
        assert (
            registry.counter("fleet.coalesce_leaders").value - leaders_before
            == 1
        )

    def test_different_params_do_not_coalesce(self, fleet):
        registry = get_registry()
        hits_before = registry.counter("fleet.coalesce_hits").value
        barrier = threading.Barrier(2)
        results: list = [None] * 2

        def worker(i):
            with connect(fleet) as client:
                barrier.wait()
                results[i] = client.classify(
                    circuit="c17", criterion=["fs", "nr"][i]
                )

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert {r["criterion"] for r in results} == {"FS", "NR"}
        assert all(r["coalesced"] is False for r in results)
        assert registry.counter("fleet.coalesce_hits").value == hits_before


    def _concurrent_benches(self, fleet, names):
        """Classify one netlist text concurrently, once per name."""
        text = write_bench(get_circuit("s499-ecc"))
        barrier = threading.Barrier(len(names))
        results: list = [None] * len(names)

        def worker(i):
            with connect(fleet) as client:
                barrier.wait()
                results[i] = client.request(
                    "classify", bench=text, name=names[i], criterion="fs"
                )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(names))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert all(r is not None for r in results)
        return results

    def test_isomorphic_requests_under_other_names_do_not_coalesce(
        self, fleet
    ):
        """One text, two names: one fingerprint and one shard, but two
        answers, each with the name its own request sent."""
        registry = get_registry()
        hits_before = registry.counter("fleet.coalesce_hits").value
        results = self._concurrent_benches(fleet, ["alpha", "beta"])
        assert [r["name"] for r in results] == ["alpha", "beta"]
        assert all(r["coalesced"] is False for r in results)
        assert registry.counter("fleet.coalesce_hits").value == hits_before
        assert results[0]["fingerprint"] == results[1]["fingerprint"]
        assert results[0]["worker"] == results[1]["worker"]

    def test_same_name_bench_requests_still_coalesce(self, fleet):
        registry = get_registry()
        hits_before = registry.counter("fleet.coalesce_hits").value
        results = self._concurrent_benches(fleet, ["gamma", "gamma"])
        assert sorted(r["coalesced"] for r in results) == [False, True]
        assert [r["name"] for r in results] == ["gamma", "gamma"]
        assert (
            registry.counter("fleet.coalesce_hits").value - hits_before == 1
        )


class TestFingerprintCache:
    def test_lru_counts_hits_and_misses_per_request_identity(self, fleet):
        registry = get_registry()
        hits = registry.counter("fleet.fingerprint_hits").value
        misses = registry.counter("fleet.fingerprint_misses").value
        bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n"
        with connect(fleet) as client:
            for name in ("lru-a", "lru-a", "lru-b"):
                result = client.request("classify", bench=bench, name=name)
                assert result["name"] == name
        assert registry.counter("fleet.fingerprint_hits").value - hits == 1
        assert (
            registry.counter("fleet.fingerprint_misses").value - misses == 2
        )

    def test_malformed_requests_fail_at_the_frontend(self, fleet):
        with connect(fleet) as client:
            for fields in ({}, {"bench": "x", "circuit": "c17"},
                           {"bench": 17}, {"circuit": 5}):
                with pytest.raises(RemoteError) as exc_info:
                    client.request("classify", **fields)
                assert exc_info.value.error_type == "ProtocolError"


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after_hint(self, tmp_path):
        harness = FleetHarness(
            workers=1, max_pending=1, health_interval=0.3
        )
        harness.start(str(tmp_path / "small.sock"))
        try:
            count = 5
            barrier = threading.Barrier(count)
            outcomes: list = [None] * count

            def worker(i):
                # distinct max_accepted defeats coalescing on purpose:
                # every request must hit the worker's pending queue
                with ServiceClient.connect(harness.address) as client:
                    barrier.wait()
                    try:
                        outcomes[i] = client.classify(
                            circuit="s499-ecc", max_accepted=500_000 + i
                        )
                    except RemoteError as exc:
                        outcomes[i] = exc

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(count)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            ok = [o for o in outcomes if isinstance(o, dict)]
            shed = [
                o for o in outcomes
                if isinstance(o, RemoteError)
                and o.error_type == "Overloaded"
            ]
            assert len(ok) >= 1, outcomes
            assert len(shed) >= 1, outcomes
            assert len(ok) + len(shed) == count
            for error in shed:
                assert error.retry_after is not None
                assert error.retry_after > 0
        finally:
            harness.stop()


class TestConeRequests:
    def test_cone_reuse_counted_fleet_wide(self, tmp_path):
        """A store-backed fleet serves warm cone requests from the cone
        table and rolls the reuse into ``fleet.cone_hits``."""
        harness = FleetHarness(
            workers=1, store=str(tmp_path / "fleet-store.sqlite")
        )
        harness.start(str(tmp_path / "cones.sock"))
        try:
            with ServiceClient.connect(harness.address) as client:
                cold = client.classify(circuit="c17", cones=True)
                warm = client.classify(circuit="c17", cones=True)
                stats = client.stats()
            assert cold["cone_stats"]["reused"] == 0
            assert warm["cone_stats"]["reused"] == warm["cone_stats"]["cones"]
            assert warm["accepted"] == cold["accepted"]
            assert stats["cone_hits"] == warm["cone_stats"]["reused"]
        finally:
            harness.stop()

    def test_cones_flag_keys_the_coalescer(self, fleet):
        """cones=True and whole-circuit answers must never coalesce —
        their payloads differ even for identical circuit/criterion."""
        with connect(fleet) as client:
            whole = client.classify(circuit="s499-ecc", criterion="fs")
            cones = client.classify(
                circuit="s499-ecc", criterion="fs", cones=True
            )
        assert "cone_stats" not in whole
        assert cones["cone_stats"]["cones"] >= 1
        assert cones["accepted"] == whole["accepted"]


class TestTightnessRequests:
    def test_tightness_routes_through_a_worker(self, fleet):
        with connect(fleet) as client:
            row = client.tightness(circuit="c17")
        assert row["worker"] in (0, 1)
        assert row["total_logical"] == 22
        assert row["exact_rd_percent"] >= row["approx_rd_percent"]
        assert row["witness_replays"] == row["exact_accepted"]

    def test_op_keys_the_coalescer(self, fleet):
        """classify and tightness on the same circuit compute different
        answers: the single-flight key must include the op."""
        with connect(fleet) as client:
            classified = client.classify(circuit="c17")
            row = client.tightness(circuit="c17")
        assert "exact_accepted" not in classified
        assert row["exact_accepted"] == classified["accepted"] == 22


class TestSignoffRequests:
    def test_signoff_routes_through_a_worker(self, fleet):
        with connect(fleet) as client:
            result = client.signoff(circuit="c17", k=4)
        assert result["worker"] in (0, 1)
        assert result["mode"] == "k"
        delays = [row["delay"] for row in result["rows"]]
        assert delays == sorted(delays, reverse=True)

    def test_query_keys_the_coalescer(self, fleet):
        """Same circuit, different k/seed: distinct single-flight keys,
        distinct answers."""
        with connect(fleet) as client:
            top2 = client.signoff(circuit="c17", k=2)
            top4 = client.signoff(circuit="c17", k=4)
            reseeded = client.signoff(circuit="c17", k=4, seed=1)
        assert len(top2["rows"]) == 2
        assert top4["rows"][:2] == top2["rows"]
        assert reseeded["delays_digest"] != top4["delays_digest"]

    def test_remote_fanout_matches_local(self, fleet):
        from repro.circuit.sequential import S27_LIKE, parse_sequential_bench
        from repro.signoff import signoff, signoff_remote

        scan = parse_sequential_bench(S27_LIKE, name="s27")
        local = signoff(scan, k=6, seed=0)
        with connect(fleet) as client:
            remote = signoff_remote(scan, client, k=6, seed=0)
        assert remote.table_bytes() == local.table_bytes()

    def test_cli_remote_matches_local_on_annotated_example(
        self, fleet, capsys
    ):
        """``repro-rd signoff FILE --remote`` against the 2-worker fleet
        prints the local table for the delay-annotated scan example."""
        from repro.cli import main

        bench = str(EXAMPLES / "s27_timing.bench")
        assert main(["signoff", bench, "--k", "5", "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(
            ["signoff", bench, "--k", "5", "--remote", fleet.address, "--json"]
        ) == 0
        remote = json.loads(capsys.readouterr().out)
        assert local["mode"] == "k" and local["k"] == 5
        assert local["rows"], "annotated s27 must have robust paths"
        assert local["paths"] == len(local["rows"]) <= 5
        volatile = ("counters", "sources", "wall_seconds")
        for key in volatile:
            local.pop(key), remote.pop(key)
        assert remote == local


class TestIntrospection:
    def test_stats_describes_the_topology(self, fleet):
        with connect(fleet) as client:
            stats = client.stats()
        assert stats["server"] == "repro-rd-fleet"
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert worker["state"] == "up"
            assert worker["alive"] is True
            assert worker["pid"]
            assert worker["routed"] is True
        assert stats["max_pending"] == 64

    def test_metrics_merges_frontend_and_workers(self, fleet):
        with connect(fleet) as client:
            client.classify(circuit="c17")
            snapshot = client.metrics()
        counters = snapshot["metrics"]["counters"]
        # front-end telemetry and worker telemetry in one view
        assert counters["fleet.requests"] >= 1
        assert counters["service.requests"] >= 1
        assert counters["service.pool_hits"] >= 1
        assert counters["service.pool_misses"] >= 1
        assert "span.service.prepare" in snapshot["metrics"]["histograms"]
        assert snapshot["server"] == "repro-rd-fleet"
        assert snapshot["workers"] == 2
