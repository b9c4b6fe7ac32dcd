"""The daemon's session pool, keyed by request identity: warm requests
reuse an idle session without rebuilding or re-fingerprinting their
circuit, answer with the name they asked for, and keep their wire
error types."""

import hashlib
import sys
import threading

import pytest

from repro.errors import CircuitError, ProtocolError, RemoteError
from repro.obs import get_registry
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.server import SessionPool, request_key

from tests.service.test_server import _unix_server, harness  # noqa: F401

BENCH = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"


def _counter(name: str) -> int:
    return get_registry().counter(name).value


class TestRequestKey:
    def test_suite_name(self):
        assert request_key({"circuit": "c17"}) == ("circuit", "c17")

    def test_bench_text_and_name(self):
        digest = hashlib.sha256(BENCH.encode("utf-8")).hexdigest()
        assert request_key({"bench": BENCH}) == ("bench", digest, "remote")
        assert request_key({"bench": BENCH, "name": "alpha"}) == (
            "bench", digest, "alpha",
        )

    @pytest.mark.parametrize("message", [
        {},
        {"bench": BENCH, "circuit": "c17"},
        {"bench": 17},
        {"circuit": ["c17"]},
    ])
    def test_malformed_shapes_are_protocol_errors(self, message):
        with pytest.raises(ProtocolError):
            request_key(message)

    def test_unknown_suite_name_fails_only_when_built(self):
        message = {"circuit": "no-such-circuit"}
        assert request_key(message) == ("circuit", "no-such-circuit")
        with pytest.raises(CircuitError):
            SessionPool(None).checkout(message)


class TestSessionPool:
    def test_hit_returns_the_idle_session(self):
        pool = SessionPool(None)
        key, session = pool.checkout({"circuit": "c17"})
        pool.checkin(key, session)
        assert pool.checkout({"circuit": "c17"}) == (key, session)
        assert pool.idle_count() == 0

    def test_isomorphic_requests_share_a_fingerprint_not_a_session(self):
        pool = SessionPool(None)
        key_a, alpha = pool.checkout({"bench": BENCH, "name": "alpha"})
        pool.checkin(key_a, alpha)
        key_b, beta = pool.checkout({"bench": BENCH, "name": "beta"})
        assert key_a != key_b and alpha is not beta
        assert (alpha.circuit.name, beta.circuit.name) == ("alpha", "beta")
        assert alpha.fingerprint == beta.fingerprint

    def test_max_idle_bound_holds_under_request_keys(self):
        pool = SessionPool(None, max_idle=2)
        leases = [
            pool.checkout({"bench": BENCH, "name": f"n{i}"}) for i in range(5)
        ]
        for key, session in leases:
            pool.checkin(key, session)
            assert pool.idle_count() <= 2
        assert pool.idle_count() == 2
        # the most recently stocked keys survive
        assert pool.checkout({"bench": BENCH, "name": "n4"}) == leases[4]

    def test_no_session_is_leased_twice_under_contention(self):
        """More threads than cores hammer three keys through a pool
        smaller than the thread count: a session is never held by two
        threads at once, and the idle bound holds throughout."""
        pool = SessionPool(None, max_idle=2)
        messages = [{"bench": BENCH, "name": f"k{i}"} for i in range(3)]
        held: set = set()
        guard = threading.Lock()
        failures: list = []

        def lease(message):
            key, session = pool.checkout(message)
            with guard:
                if id(session) in held:
                    failures.append("leased twice")
                held.add(id(session))
            if session.circuit.name != key[2]:
                failures.append("wrong circuit for key")
            with guard:
                held.discard(id(session))
            pool.checkin(key, session)
            if pool.idle_count() > 2:
                failures.append("idle bound exceeded")

        def worker(seed):
            try:
                for step in range(200):
                    lease(messages[(seed + step) % 3])
            except Exception as exc:  # surfaced through failures
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestWarmRequests:
    def test_warm_requests_build_and_canonicalize_once(
        self, harness, monkeypatch  # noqa: F811
    ):
        calls = {"build": 0, "canon": 0}
        build = server_module._build_circuit
        canon = server_module.canonical_form

        def counting_build(message):
            calls["build"] += 1
            return build(message)

        def counting_canon(circuit):
            calls["canon"] += 1
            return canon(circuit)

        monkeypatch.setattr(server_module, "_build_circuit", counting_build)
        monkeypatch.setattr(server_module, "canonical_form", counting_canon)
        hits = _counter("service.pool_hits")
        misses = _counter("service.pool_misses")
        prepared = get_registry().histogram("span.service.prepare").count
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            answers = [client.classify(circuit="c17") for _ in range(6)]
        assert calls == {"build": 1, "canon": 1}
        assert {a["accepted"] for a in answers} == {answers[0]["accepted"]}
        assert _counter("service.pool_hits") - hits == 5
        assert _counter("service.pool_misses") - misses == 1
        assert (
            get_registry().histogram("span.service.prepare").count - prepared
            == 1
        )

    @pytest.mark.parametrize("op, field", [
        ("classify", "name"),
        ("tightness", "circuit"),
        ("signoff", "circuit"),
    ])
    def test_answer_carries_the_requested_name(
        self, harness, op, field  # noqa: F811
    ):
        """Isomorphic netlists under two names: each answer (and its
        ``start`` event) names the circuit its own request sent."""
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            for name in ("alpha", "beta", "alpha"):
                events = []
                result = client.request(
                    op, bench=BENCH, name=name, on_event=events.append
                )
                assert result[field] == name
                assert events[0]["name"] == name


class TestWireErrors:
    @pytest.mark.parametrize("fields, error_type", [
        ({}, "ProtocolError"),
        ({"bench": BENCH, "circuit": "c17"}, "ProtocolError"),
        ({"bench": 17}, "ProtocolError"),
        ({"circuit": 5}, "ProtocolError"),
        ({"circuit": "no-such-circuit"}, "CircuitError"),
    ])
    def test_malformed_requests_keep_their_error_types(
        self, harness, fields, error_type  # noqa: F811
    ):
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            for op in ("classify", "tightness", "signoff"):
                # twice: a failed request must not leave a pooled session
                for _ in range(2):
                    with pytest.raises(RemoteError) as exc_info:
                        client.request(op, **fields)
                    assert exc_info.value.error_type == error_type
            assert client.stats()["idle_sessions"] == 0
