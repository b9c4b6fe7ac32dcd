"""The analysis service's wire protocol: JSON lines over a stream.

Both directions carry one JSON object per ``\\n``-terminated line
(UTF-8, no embedded newlines — ``json.dumps`` escapes them).  Requests
carry an ``op`` plus op-specific fields and an optional ``id`` the
server echoes into everything it sends back for that request::

    -> {"id": 1, "op": "classify", "circuit": "c17", "criterion": "sigma"}
    <- {"id": 1, "event": "start", "name": "c17", "fingerprint": "rdfp1:..."}
    <- {"id": 1, "ok": true, "result": {"accepted": 10, ...}}

A failed request answers with a *structured error* on the same open
connection — the connection is only dropped for unrecoverable framing
problems (an oversized line)::

    <- {"id": 2, "ok": false,
        "error": {"type": "TaskTimeout", "message": "..."}}

``error.type`` is the server-side exception class name
(``CircuitError``, ``ClassifyError``, ``TaskTimeout``, ...), which the
client rehydrates as :class:`repro.errors.RemoteError`.

Ops and their fields.  :data:`OPS` is this table, and
:func:`normalize` checks every request against it before any work
starts: a wrong type (a boolean is not an int), a value outside
``choices`` or a bad circuit identity answers ``ProtocolError``.
``circuit/bench`` is that identity: a suite generator name in
``circuit``, or ``.bench`` text in ``bench`` with an optional ``name``.
Fields outside the table are ignored::

    | op        | field         | type   | default | choices                  | idempotent |
    |-----------|---------------|--------|---------|--------------------------|------------|
    | classify  | circuit/bench | str    |         |                          | yes        |
    | classify  | criterion     | str    | "sigma" | fs, nr, sigma            | yes        |
    | classify  | sort          | str    | "heu2"  | pin, heu1, heu2, heu2inv | yes        |
    | classify  | max_accepted  | int    | null    |                          | yes        |
    | classify  | cones         | bool   | false   |                          | yes        |
    | classify  | deadline      | number | null    |                          | yes        |
    | tightness | circuit/bench | str    |         |                          | yes        |
    | tightness | criterion     | str    | "sigma" | fs, nr, sigma            | yes        |
    | tightness | sort          | str    | "heu2"  | pin, heu1, heu2, heu2inv | yes        |
    | tightness | max_accepted  | int    | null    |                          | yes        |
    | tightness | deadline      | number | null    |                          | yes        |
    | signoff   | circuit/bench | str    |         |                          | yes        |
    | signoff   | k             | int    | null    |                          | yes        |
    | signoff   | slack         | number | null    |                          | yes        |
    | signoff   | delays        | str    | null    |                          | yes        |
    | signoff   | seed          | int    | 0       |                          | yes        |
    | signoff   | deadline      | number | null    |                          | yes        |
    | metrics   |               |        |         |                          | yes        |
    | ping      |               |        |         |                          | yes        |
    | stats     |               |        |         |                          | yes        |

``sort`` shapes only a ``sigma`` pass but is checked for every
criterion; ``cones: true`` asks for cone granularity against the
store's cone rows (the ECO path; the result adds a ``cone_stats`` reuse
summary) and derives the sort per cone.  ``signoff`` takes at most one
of ``k`` (>= 1) and ``slack``; its ``delays`` text must cover every
non-PI gate (``seed`` only picks the fallback when ``delays`` is
absent).  A null ``deadline`` comes from the circuit's path count, a
null ``max_accepted`` from the server.  ``tightness`` answers one
exact-vs-approximate verdict row (:mod:`repro.verdict`), ``signoff``
the K-longest or above-slack robustly-testable paths
(:mod:`repro.signoff`); ``ping``, ``stats`` and ``metrics`` report
liveness, counters and the :mod:`repro.obs` telemetry snapshot.
docs/API.md describes each result.

Every server message for a request additionally carries the
server-assigned ``request_id`` (``"req-<n>"``) alongside the client's
echoed ``id`` — the correlation key tying a ``start`` event, its final
result (or error) and the server's logs/metrics together.

Fleet additions (:mod:`repro.service.fleet`) — same ops, three extra
fields when the daemon runs with ``--workers N``:

* classify results carry ``"worker"`` (the shard index that computed
  the answer) and ``"coalesced"`` (``true`` when this response was
  satisfied by another in-flight identical request through the
  front-end's single-flight cache, ``false`` for the request that did
  the computation).  Coalesced followers receive the final response
  only — the ``start`` event streams to the computing request alone.
* a shed request answers ``error.type == "Overloaded"`` with an extra
  ``error.retry_after`` field — the front-end's backoff hint in
  seconds.  Any exception carrying a numeric ``retry_after`` attribute
  serializes the same way; the client surfaces it on
  :class:`~repro.errors.RemoteError` as ``retry_after``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ProtocolError

__all__ = [
    "MAX_LINE",
    "OPS",
    "OpSpec",
    "Param",
    "decode_line",
    "encode_line",
    "error_response",
    "event",
    "normalize",
    "ok_response",
    "request_key",
    "validate_request",
]

#: longest accepted wire line — generously above any realistic ``.bench``
MAX_LINE = 8 * 1024 * 1024

_NUMBER = (int, float)
_TYPE_NAMES = {(str,): "str", (int,): "int", (bool,): "bool", _NUMBER: "number"}


@dataclass(frozen=True)
class Param:
    """One request field: its JSON types, its default when omitted and,
    for an enumerated field, the values it may take.  ``null`` stands
    for an omitted field only where the default is ``None``."""

    types: tuple
    default: object = None
    choices: "tuple | None" = None

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES[self.types]

    def read(self, name: str, message: dict):
        value = message.get(name, self.default)
        if value is None and self.default is None:
            return None
        # a JSON true/false is a Python bool, which is also an int
        if (isinstance(value, bool) != (bool in self.types)
                or not isinstance(value, self.types)):
            raise ProtocolError(
                f"'{name}' must be {self.type_name}, "
                f"got {type(value).__name__}"
            )
        # json.loads reads NaN and ±Infinity as floats
        if isinstance(value, float) and not math.isfinite(value):
            raise ProtocolError(f"'{name}' must be a finite number, got {value}")
        if self.choices is not None and value not in self.choices:
            raise ProtocolError(
                f"unknown {name} {value!r}; valid: {', '.join(self.choices)}"
            )
        return value


@dataclass(frozen=True)
class OpSpec:
    """One wire op: its parameters, whether it names a circuit (see
    :func:`request_key`), whether a broken transport may resend it, and
    an optional ``check(params)`` for rules that span fields.

    A mutating op must be ``idempotent=False``: the fleet and the
    client would otherwise resend it after a crash and apply it twice.
    """

    name: str
    params: "dict[str, Param]" = field(default_factory=dict)
    circuit: bool = False
    idempotent: bool = True
    check: "Callable[[dict], None] | None" = None


def _check_signoff(params: dict) -> None:
    if params["k"] is not None and params["slack"] is not None:
        raise ProtocolError("pass either 'k' or 'slack', not both")
    if params["k"] is not None and params["k"] < 1:
        raise ProtocolError("'k' must be an integer >= 1")


def _circuit_op(name: str, check=None, **params: Param) -> OpSpec:
    params["deadline"] = Param(_NUMBER)
    return OpSpec(name, params, circuit=True, check=check)


_ANALYSIS = dict(
    criterion=Param((str,), "sigma", ("fs", "nr", "sigma")),
    sort=Param((str,), "heu2", ("pin", "heu1", "heu2", "heu2inv")),
    max_accepted=Param((int,)),
)

#: every wire op by name: the one schema the daemon, the fleet front end
#: and the client derive validation, coalescing keys and retries from
OPS: "dict[str, OpSpec]" = {spec.name: spec for spec in (
    _circuit_op("classify", **_ANALYSIS, cones=Param((bool,), False)),
    _circuit_op("tightness", **_ANALYSIS),
    _circuit_op(
        "signoff", _check_signoff,
        k=Param((int,)),
        slack=Param(_NUMBER),
        delays=Param((str,)),
        seed=Param((int,), 0),
    ),
    OpSpec("metrics"),
    OpSpec("ping"),
    OpSpec("stats"),
)}


def encode_line(message: dict) -> bytes:
    """One protocol message as a complete wire line (with newline)."""
    return json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> dict:
    """Parse one wire line into a message, or raise :class:`ProtocolError`."""
    if len(raw) > MAX_LINE:
        raise ProtocolError(f"line exceeds {MAX_LINE} bytes")
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: dict) -> str:
    """Check a decoded request and return its ``op``."""
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request is missing a string 'op' field")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; valid: {', '.join(sorted(OPS))}"
        )
    return op


def request_key(message: dict) -> tuple:
    """The identity of the circuit a request names.

    ``("circuit", name)`` for a suite generator, ``("bench",
    sha256(text), name)`` for netlist text.  Two requests with one key
    build the identical circuit, name included, so a key can stand in
    for the circuit without building it.  Raises :class:`ProtocolError`
    unless exactly one of ``bench``/``circuit`` is given with the right
    type; an unknown suite name surfaces only when the circuit is built.
    """
    bench = message.get("bench")
    name = message.get("circuit")
    if (bench is None) == (name is None):
        raise ProtocolError(
            "classify needs exactly one of 'bench' (netlist text) or "
            "'circuit' (suite generator name)"
        )
    if bench is not None:
        if not isinstance(bench, str):
            raise ProtocolError("'bench' must be .bench source text")
        return (
            "bench",
            hashlib.sha256(bench.encode("utf-8")).hexdigest(),
            str(message.get("name", "remote")),
        )
    if not isinstance(name, str):
        raise ProtocolError("'circuit' must be a suite generator name")
    return ("circuit", name)


def normalize(message: dict) -> "tuple[OpSpec, dict]":
    """Check a decoded request against its op's spec.

    Returns the spec and every one of its parameters, defaults filled
    in; handlers read nothing else, so two requests with equal
    parameters (and circuit identity) get the same answer.  Raises
    :class:`ProtocolError` before any work starts.
    """
    spec = OPS[validate_request(message)]
    if spec.circuit:
        request_key(message)
    params = {
        name: param.read(name, message) for name, param in spec.params.items()
    }
    if spec.check is not None:
        spec.check(params)
    return spec, params


def ok_response(request_id, result: dict, server_request_id: "str | None" = None) -> dict:
    message = {"id": request_id, "ok": True, "result": result}
    if server_request_id is not None:
        message["request_id"] = server_request_id
    return message


def error_response(
    request_id, exc: BaseException, server_request_id: "str | None" = None
) -> dict:
    message = {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        message["error"]["retry_after"] = round(float(retry_after), 3)
    if server_request_id is not None:
        message["request_id"] = server_request_id
    return message


def event(
    request_id, kind: str, server_request_id: "str | None" = None, **fields
) -> dict:
    """A streamed progress event (anything before the final response).

    ``fields`` are the event's payload; they must not collide with the
    reserved keys ``id`` / ``event`` / ``request_id`` (the last carries
    the server's correlation key when ``server_request_id`` is given).
    """
    message = {"id": request_id, "event": kind}
    if server_request_id is not None:
        message["request_id"] = server_request_id
    message.update(fields)
    return message
