"""The one op schema (``protocol.OPS``): the daemon and the fleet front
end reject malformed requests identically and before any work starts,
the fleet's coalescing key is exactly the normalized request, and the
documented wire table is the registry."""

import hashlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.conditions import CRITERIA, Criterion
from repro.classify.session import SORT_KINDS
from repro.cli import main
from repro.errors import RemoteError
from repro.gen.suite import get_circuit
from repro.incremental import cone_classify
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.fleet import coalescing_key
from repro.service.protocol import request_key
from repro.service.server import AnalysisServer

from tests.service.fleet_harness import FleetHarness
from tests.service.test_server import ServerHarness

ROOT = Path(__file__).resolve().parents[2]

BENCH_A = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
BENCH_B = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n"


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """A plain daemon and a 1-worker fleet, side by side."""
    tmp = tmp_path_factory.mktemp("schema")
    daemon = ServerHarness()
    daemon.start(socket_path=str(tmp / "daemon.sock"))
    fleet = FleetHarness(workers=1, health_interval=0.3)
    fleet.start(str(tmp / "fleet.sock"))
    yield {"daemon": daemon.address, "fleet": fleet.address}
    fleet.stop()
    daemon.stop()


MALFORMED = [
    {"op": "signoff", "circuit": "c17", "delays": 5},
    {"op": "signoff", "circuit": "c17", "k": [1]},
    {"op": "signoff", "circuit": "c17", "k": True},
    {"op": "classify", "circuit": "c17", "max_accepted": {}},
    {"op": "classify", "circuit": "c17", "max_accepted": True},
    {"op": "classify", "circuit": "c17", "criterion": ["x"]},
    {"op": "classify", "circuit": "c17", "criterion": "fs", "sort": "bogus"},
    {"op": "classify", "circuit": "c17", "sort": "bogus"},
    {"op": "tightness", "circuit": "c17", "sort": "bogus"},
    # json.loads reads these bare tokens as non-finite floats
    {"op": "signoff", "circuit": "c17", "slack": float("nan")},
    {"op": "signoff", "circuit": "c17", "slack": float("inf")},
    {"op": "classify", "circuit": "c17", "deadline": float("-inf")},
]


def _answer(address: str, message: dict):
    """``(error_type, error_message, events)`` of one malformed request."""
    fields = dict(message)
    op = fields.pop("op")
    events: list = []
    with ServiceClient.connect(address) as client:
        with pytest.raises(RemoteError) as exc_info:
            client.request(op, on_event=events.append, **fields)
        assert client.ping()  # the connection survives the rejection
    return exc_info.value.error_type, exc_info.value.message, events


class TestMalformedParity:
    @pytest.mark.parametrize(
        "message", MALFORMED, ids=[json.dumps(m) for m in MALFORMED]
    )
    def test_daemon_and_fleet_reject_identically(self, servers, message):
        daemon = _answer(servers["daemon"], message)
        fleet = _answer(servers["fleet"], message)
        assert daemon == fleet
        error_type, _text, events = daemon
        assert error_type == "ProtocolError"
        # rejected before any work: no start event was streamed
        assert events == []

    def test_non_finite_numbers_are_named(self, servers):
        for address in servers.values():
            for value in (float("nan"), float("inf"), float("-inf")):
                error_type, text, events = _answer(
                    address, {"op": "signoff", "circuit": "c17", "slack": value}
                )
                assert (error_type, events) == ("ProtocolError", [])
                assert "'slack' must be a finite number" in text

    def test_invalid_sort_gets_no_start_event(self, servers):
        for address in servers.values():
            for op in ("classify", "tightness"):
                error_type, text, events = _answer(
                    address, {"op": op, "circuit": "c17", "sort": "random"}
                )
                assert (error_type, events) == ("ProtocolError", [])
                assert "unknown sort 'random'" in text

    def test_heu2inv_at_cone_granularity_is_answered(self, servers):
        """Every named sort works per cone: the daemon and the fleet give
        the library's answer."""
        report = cone_classify(
            get_circuit("c17"), Criterion.SIGMA_PI, sort="heu2inv"
        )
        keys = ("name", "criterion", "sort", "total_logical", "accepted",
                "edges_visited", "fingerprint", "cone_stats")
        answers = []
        for address in (servers["daemon"], servers["fleet"]):
            with ServiceClient.connect(address) as client:
                result = client.classify(
                    circuit="c17", sort="heu2inv", cones=True
                )
            answers.append({key: result[key] for key in keys})
        daemon, fleet = answers
        assert daemon == fleet
        assert daemon["sort"] == "heu2inv"
        assert daemon["accepted"] == report.result.accepted
        assert daemon["total_logical"] == report.result.total_logical
        assert daemon["edges_visited"] == report.result.edges_visited

    def test_unknown_fields_stay_ignored(self, servers):
        for address in servers.values():
            with ServiceClient.connect(address) as client:
                result = client.request(
                    "classify", circuit="c17", criterion="fs", colour="red"
                )
            assert result["total_logical"] == 22

    def test_a_signoff_exact_field_is_ignored(self, servers):
        """``exact`` was a signoff field once: a client that still sends
        it gets the plain answer and shares its coalescing key."""
        plain = {"op": "signoff", "circuit": "c17", "k": 8}
        legacy = dict(plain, exact=True)
        assert _fleet_key(legacy) == _fleet_key(plain)
        for address in servers.values():
            with ServiceClient.connect(address) as client:
                want = client.request(**plain)
                got = client.request(**legacy)
            assert got["rows"] == want["rows"]
            assert "exact" not in got


class TestCliRemoteSort:
    def test_fs_with_random_sort_leaves_the_sort_off_the_wire(
        self, servers, capsys
    ):
        argv = ["classify", "c17", "--criterion", "fs", "--sort", "random"]
        assert main(argv + ["--remote", servers["daemon"]]) == 0
        assert "c17 [FS]: 22/22" in capsys.readouterr().out

    def test_sigma_with_random_sort_is_rejected_remotely(
        self, servers, capsys
    ):
        argv = ["classify", "c17", "--sort", "random"]
        assert main(argv + ["--remote", servers["daemon"]]) == 1
        assert "unknown sort 'random'" in capsys.readouterr().err


class _Recorder(ServiceClient):
    """A client that records each request's wire line instead of sending."""

    def __init__(self):
        self.lines: list = []

    def request(self, op, on_event=None, **fields):
        self.lines.append(protocol.encode_line({"op": op, **fields}))
        return {}


def test_client_request_lines_are_pinned():
    client = _Recorder()
    client.classify(circuit="c17")
    client.classify(bench="x", criterion="fs", cones=True, max_accepted=0)
    client.tightness(circuit="c17", sort="pin", deadline=1.5)
    client.signoff(circuit="c17")
    client.signoff(circuit="c17", slack=0.0, seed=4, delays="")
    assert client.lines == [
        b'{"circuit":"c17","criterion":"sigma","op":"classify",'
        b'"sort":"heu2"}\n',
        b'{"bench":"x","cones":true,"criterion":"fs","max_accepted":0,'
        b'"op":"classify","sort":"heu2"}\n',
        b'{"circuit":"c17","criterion":"sigma","deadline":1.5,'
        b'"op":"tightness","sort":"pin"}\n',
        b'{"circuit":"c17","op":"signoff"}\n',
        b'{"circuit":"c17","delays":"","op":"signoff","seed":4,'
        b'"slack":0.0}\n',
    ]


# -- the handlers and the client follow the schema ---------------------------
CIRCUIT_OPS = [name for name, spec in protocol.OPS.items() if spec.circuit]


def _keywords(function, positional: set) -> set:
    return set(inspect.signature(function).parameters) - positional


@pytest.mark.parametrize("op", CIRCUIT_OPS)
def test_handler_and_client_take_exactly_the_op_fields(op):
    """A wire field cannot outlive the handler that reads it, and a
    client keyword cannot outlive the wire field it sends."""
    fields = set(protocol.OPS[op].params)
    handler = getattr(AnalysisServer, f"_op_{op}")
    assert _keywords(handler, {"self", "session"}) == fields - {"deadline"}
    client = getattr(ServiceClient, op)
    assert _keywords(client, {"self"}) == fields | {
        "circuit", "bench", "on_event"
    }


# -- the coalescing key ----------------------------------------------------
#: each circuit op's fields: (documented default, values to draw)
FIELDS = {
    "classify": {
        "criterion": ("sigma", ["fs", "nr", "sigma"]),
        "sort": ("heu2", ["pin", "heu1", "heu2", "heu2inv"]),
        "max_accepted": (None, [None, 0, 7]),
        "cones": (False, [False, True]),
        "deadline": (None, [None, 2, 2.0, 2.5]),
    },
    "tightness": {
        "criterion": ("sigma", ["fs", "sigma"]),
        "sort": ("heu2", ["pin", "heu2", "heu2inv"]),
        "max_accepted": (None, [None, 7]),
        "deadline": (None, [None, 2.5]),
    },
    "signoff": {
        "k": (None, [None, 1, 5]),
        "slack": (None, [None, 0.5]),
        "delays": (None, [None, "y 1 2\n"]),
        "seed": (0, [0, 3]),
        "deadline": (None, [None, 2.5]),
    },
}
IDENTITIES = [
    {"circuit": "c17"},
    {"circuit": "apex-a"},
    {"bench": BENCH_A},
    {"bench": BENCH_A, "name": "remote"},
    {"bench": BENCH_A, "name": "alt"},
    {"bench": BENCH_B},
]


def _identity(fields: dict) -> tuple:
    if "circuit" in fields:
        return ("circuit", fields["circuit"])
    return ("bench", fields["bench"], fields.get("name", "remote"))


@st.composite
def _meanings(draw):
    """What a request asks for: op, circuit identity, every field's value."""
    op = draw(st.sampled_from(sorted(FIELDS)))
    values = {
        name: draw(st.sampled_from(choices))
        for name, (_default, choices) in FIELDS[op].items()
    }
    if op == "signoff" and values["k"] is not None:
        values["slack"] = None  # k and slack are mutually exclusive
    identity = draw(st.sampled_from(IDENTITIES))
    return op, identity, values


def _spelling(draw, op: str, identity: dict, values: dict) -> dict:
    """One wire message for a meaning: a field at its default is omitted
    or spelled out at random, and an unknown field may ride along."""
    message = {"op": op, **identity}
    for name, value in values.items():
        if value != FIELDS[op][name][0] or draw(st.booleans()):
            message[name] = value
    if draw(st.booleans()):
        message["colour"] = draw(st.sampled_from(["red", 1, None]))
    return message


def _fleet_key(message: dict) -> tuple:
    spec, params = protocol.normalize(message)
    return coalescing_key(spec, request_key(message), params)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_keys_are_equal_iff_the_requests_mean_the_same(data):
    first = data.draw(_meanings())
    second = first if data.draw(st.booleans()) else data.draw(_meanings())
    same = (first[0], _identity(first[1]), first[2]) == (
        second[0], _identity(second[1]), second[2]
    )
    a = _spelling(data.draw, *first)
    b = _spelling(data.draw, *second)
    assert (_fleet_key(a) == _fleet_key(b)) == same


def _old_key(message: dict) -> tuple:
    """The hand-built coalescing tuple the fleet used before the schema."""
    op = message["op"]
    circuit_key = request_key(message)
    deadline = message.get("deadline")
    if op == "signoff":
        delays = message.get("delays")
        return (
            op, circuit_key, message.get("k"), message.get("slack"),
            bool(message.get("exact", False)), message.get("seed", 0),
            None if delays is None
            else hashlib.sha256(delays.encode("utf-8")).hexdigest(),
            deadline,
        )
    return (
        op, circuit_key, message.get("criterion", "sigma"),
        message.get("sort", "heu2"), message.get("max_accepted"), deadline,
        bool(message.get("cones", False)),
    )


def _benchmark_plan() -> list:
    """``make_plan(1)`` of the service benchmark, imported unedited."""
    path = ROOT / "perfbench"
    added = [m for m in ("common", "speed", "table1", "tracer")
             if m not in sys.modules]
    sys.path.insert(0, str(path))
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_service", path / "service.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.make_plan(1)
    finally:
        sys.path.remove(str(path))
        for name in added:
            sys.modules.pop(name, None)


def test_benchmark_plan_groups_requests_as_before():
    messages = [{"op": op, **fields} for _kind, op, fields in _benchmark_plan()]
    old = [_old_key(m) for m in messages]
    new = [_fleet_key(m) for m in messages]
    assert len(set(new)) == len(set(old))
    # the same partition, not merely the same count
    assert len(set(zip(old, new))) == len(set(old))


def test_choice_lists_follow_the_library():
    """The wire keeps literal choice tuples (the protocol module imports
    no classifier code); they must name exactly the library's
    criteria and sorts."""
    for op in ("classify", "tightness"):
        params = protocol.OPS[op].params
        assert params["criterion"].choices == tuple(sorted(CRITERIA))
        assert params["sort"].choices == SORT_KINDS


# -- the documented wire table -----------------------------------------------
HEADER = ["op", "field", "type", "default", "choices", "idempotent"]


def _parse_table(text: str) -> list:
    rows = None
    for line in text.splitlines():
        line = line.strip()
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if rows is None:
            if cells == HEADER:
                rows = []
            continue
        if not line.startswith("|"):
            break
        if not set(line) <= set("|- "):  # the separator row
            rows.append(cells)
    assert rows, "wire-op table not found"
    return rows


def _registry_rows() -> list:
    rows = []
    for spec in protocol.OPS.values():
        flag = "yes" if spec.idempotent else "no"
        if spec.circuit:
            rows.append([spec.name, "circuit/bench", "str", "", "", flag])
        for name, param in spec.params.items():
            rows.append([
                spec.name, name, param.type_name, json.dumps(param.default),
                ", ".join(param.choices or ()), flag,
            ])
        if not spec.circuit and not spec.params:
            rows.append([spec.name, "", "", "", "", flag])
    return rows


@pytest.mark.parametrize("source", ["docs/API.md", "protocol docstring"])
def test_documented_wire_table_is_the_registry(source):
    if source == "docs/API.md":
        text = (ROOT / "docs" / "API.md").read_text()
    else:
        text = protocol.__doc__
    assert _parse_table(text) == _registry_rows()
