"""The daemon's ``tightness`` op: exact verdicts over the wire."""

import json

import pytest

from repro.circuit.examples import paper_example_circuit
from repro.cli import main
from repro.errors import RemoteError
from repro.obs import reset_registry
from repro.service.client import ServiceClient

from tests.service.test_op_schema import servers  # noqa: F401
from tests.service.test_server import _unix_server, harness  # noqa: F401


@pytest.fixture(autouse=True)
def clean_registry():
    reset_registry()
    yield
    reset_registry()


class TestTightnessOp:
    def test_suite_circuit_round_trip(self, harness):  # noqa: F811
        h = _unix_server(harness, store=str(harness.tmp_path / "s.sqlite"))
        events = []
        with ServiceClient.connect(h.address) as client:
            row = client.tightness(
                circuit="c17", on_event=lambda e: events.append(e)
            )
        assert row["circuit"] == "c17"
        assert row["criterion"] == "SIGMA_PI"
        assert row["total_logical"] == 22
        assert row["exact_accepted"] <= row["approx_accepted"]
        assert row["exact_rd_percent"] >= row["approx_rd_percent"]
        assert row["witness_replays"] == row["exact_accepted"]
        assert row["fingerprint"].startswith("rdfp1:")
        starts = [e for e in events if e.get("event") == "start"]
        assert len(starts) == 1
        assert starts[0]["fingerprint"] == row["fingerprint"]

    def test_in_memory_circuit_serialized_via_bench(self, harness):  # noqa: F811
        h = _unix_server(harness)
        circuit = paper_example_circuit()
        with ServiceClient.connect(h.address) as client:
            row = client.tightness(circuit=circuit, criterion="nr")
        assert row["criterion"] == "NR"
        assert row["total_logical"] == 8
        # the paper's NR example: some paths refuted even exactly
        assert row["exact_accepted"] < row["total_logical"]

    def test_warm_store_serves_second_request(self, harness):  # noqa: F811
        h = _unix_server(harness, store=str(harness.tmp_path / "s.sqlite"))
        with ServiceClient.connect(h.address) as client:
            cold = client.tightness(circuit="c17")
            warm = client.tightness(circuit="c17")
        assert cold["source"] == "computed"
        assert warm["source"] == "store"
        for key in ("total_logical", "approx_accepted", "exact_accepted"):
            assert cold[key] == warm[key]

    def test_max_accepted_overflow_is_structured_error(self, harness):  # noqa: F811
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.tightness(circuit="apex-a", max_accepted=10)
        assert excinfo.value.error_type == "ClassifyError"

    def test_budget_covers_heu2_passes_cold_and_warm(self, harness):  # noqa: F811
        """apex-a's FS^sup (166) is over a budget of 150 that its σ^π
        pass (136) fits: the Heu2 sort's FS pass aborts the request,
        also once an unbudgeted request has warmed the store."""
        h = _unix_server(harness, store=str(harness.tmp_path / "s.sqlite"))
        with ServiceClient.connect(h.address) as client:
            for warm_first in (False, True):
                if warm_first:
                    row = client.tightness(circuit="apex-a")
                    assert row["approx_accepted"] == 136
                with pytest.raises(RemoteError) as excinfo:
                    client.tightness(circuit="apex-a", max_accepted=150)
                assert excinfo.value.error_type == "ClassifyError"

    def test_invalid_sort_rejected(self, harness):  # noqa: F811
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.tightness(circuit="c17", sort="nope")
        assert excinfo.value.error_type == "ProtocolError"

    def test_op_counted_in_metrics(self, harness):  # noqa: F811
        h = _unix_server(harness)
        with ServiceClient.connect(h.address) as client:
            client.tightness(circuit="c17")
            counters = client.metrics()["metrics"]["counters"]
        assert counters["service.op.tightness"] == 1
        assert counters["verdict.queries"] >= 22
        assert counters["verdict.witness_replays"] >= 1


#: keys of a ``tightness --json`` payload that hold solver work, timing
#: or provenance, not the table
_VOLATILE = ("conflicts", "decisions", "learned_reuse", "elapsed", "source")


def _table_fields(payload: dict) -> dict:
    """The ``table_payload`` fields of a ``tightness --json`` payload."""
    table = {k: v for k, v in payload.items() if k != "wall_seconds"}
    table["rows"] = [
        {k: v for k, v in row.items() if k not in _VOLATILE}
        for row in payload["rows"]
    ]
    return table


class TestCliRemoteTightness:
    """``repro-rd tightness --remote`` runs the local sweep: the PI
    ceiling and the budget SKIP rule give the same table from the daemon
    and from the fleet."""

    CASES = {
        "pi-ceiling": ["c17", "s432-rand", "--max-inputs", "10"],
        "budget": ["s432-rand", "--max-accepted", "10", "--max-inputs", "64"],
    }

    @pytest.mark.parametrize("server", ["daemon", "fleet"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_remote_table_equals_local(self, servers, server, case, capsys):
        argv = ["tightness", *self.CASES[case], "--json"]
        assert main(argv) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(argv + ["--remote", servers[server]]) == 0
        remote = json.loads(capsys.readouterr().out)
        assert _table_fields(remote) == _table_fields(local)
        assert [row["skipped"] != "" for row in local["rows"]] == (
            [False, True] if case == "pi-ceiling" else [True]
        )

    def test_remote_text_table_equals_local(self, servers, capsys):
        argv = ["tightness", "c17", "s432-rand", "--max-inputs", "10"]
        assert main(argv) == 0
        local = capsys.readouterr().out
        assert main(argv + ["--remote", servers["daemon"]]) == 0
        assert capsys.readouterr().out == local
