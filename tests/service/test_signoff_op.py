"""The daemon's ``signoff`` op: robust-path timing queries over the wire."""

import pytest

from repro.circuit.bench import parse_bench
from repro.circuit.sequential import S27_LIKE, parse_sequential_bench
from repro.errors import RemoteError
from repro.obs import reset_registry
from repro.service.client import ServiceClient
from repro.signoff import signoff, signoff_core, signoff_remote
from repro.signoff.report import SignoffRow
from repro.timing.annotate import write_delay_annotations
from repro.timing.delays import random_delays

from tests.service.test_server import _unix_server, harness  # noqa: F401

BENCH = """\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n = NOT(b)
m = AND(a, n)
y = OR(m, c)
"""


@pytest.fixture(autouse=True)
def clean_registry():
    reset_registry()
    yield
    reset_registry()


class TestSignoffOp:
    def test_suite_circuit_round_trip(self, harness):  # noqa: F811
        h = _unix_server(harness)
        events = []
        with ServiceClient.connect(h.address) as client:
            result = client.signoff(
                circuit="c17", k=5, on_event=lambda e: events.append(e)
            )
        assert result["circuit"] == "c17"
        assert result["mode"] == "k"
        assert result["k"] == 5
        assert result["delays_digest"].startswith("rdly1:")
        assert result["fingerprint"].startswith("rdfp1:")
        delays = [row["delay"] for row in result["rows"]]
        assert delays == sorted(delays, reverse=True)
        assert len(delays) <= 5
        assert result["counters"]["robust_confirmed"] >= len(delays)
        starts = [e for e in events if e.get("event") == "start"]
        assert len(starts) == 1

    def test_explicit_delays_match_local_run(self, harness):  # noqa: F811
        h = _unix_server(harness)
        circuit = parse_bench(BENCH, name="tiny")
        delays = random_delays(circuit, seed=7)
        local_rows, _c, _s = signoff_core(circuit, delays, k=10)
        with ServiceClient.connect(h.address) as client:
            result = client.signoff(
                circuit=circuit,
                k=10,
                delays=write_delay_annotations(delays),
            )
        remote_rows = [SignoffRow.from_table_row(r) for r in result["rows"]]
        assert remote_rows == local_rows

    def test_partial_delays_rejected(self, harness):  # noqa: F811
        h = _unix_server(harness)
        circuit = parse_bench(BENCH, name="tiny")
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.signoff(circuit=circuit, delays="n 1.0 1.0\n")
        assert excinfo.value.error_type == "BenchParseError"

    def test_remote_fanout_matches_local(self, harness):  # noqa: F811
        h = _unix_server(harness)
        scan = parse_sequential_bench(S27_LIKE, name="s27")
        local = signoff(scan, k=6, seed=0)
        with ServiceClient.connect(h.address) as client:
            remote = signoff_remote(scan, client, k=6, seed=0)
        assert remote.table_bytes() == local.table_bytes()
        assert remote.delays_digest == local.delays_digest

    def test_warm_store_serves_second_request(self, harness):  # noqa: F811
        h = _unix_server(harness, store=str(harness.tmp_path / "s.sqlite"))
        with ServiceClient.connect(h.address) as client:
            cold = client.signoff(circuit="c17", k=3)
            warm = client.signoff(circuit="c17", k=3)
        assert cold["source"] == "computed"
        assert warm["source"] == "store"
        assert warm["rows"] == cold["rows"]

    def test_slack_mode_and_validation(self, harness):  # noqa: F811
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            result = client.signoff(circuit="c17", slack=0.0)
            assert result["mode"] == "slack"
            with pytest.raises(RemoteError) as excinfo:
                client.signoff(circuit="c17", k=2, slack=1.0)
            assert excinfo.value.error_type == "ProtocolError"
            with pytest.raises(RemoteError) as excinfo:
                client.signoff(circuit="c17", k=0)
            assert excinfo.value.error_type == "ProtocolError"

    def test_op_counted_in_metrics(self, harness):  # noqa: F811
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            client.signoff(circuit="c17", k=3)
            counters = client.metrics()["metrics"]["counters"]
        assert counters["service.op.signoff"] == 1
        assert counters["signoff.robust_confirmed"] >= 1
