"""Fault-tolerant blocking client for the analysis service.

A synchronous wrapper over one socket speaking the JSON-lines protocol
of :mod:`repro.service.protocol`, used by ``repro-rd classify
--remote`` and the service benchmarks.  Structured server errors
rehydrate as :class:`~repro.errors.RemoteError` (carrying the server's
exception class name in ``error_type`` and, for ``Overloaded`` sheds,
the backoff hint in ``retry_after``); transport and framing problems
raise :class:`~repro.errors.ServiceError` / ``ProtocolError``.

Fault tolerance, opt-in via a :class:`RetryPolicy`:

* **connect retry** — :meth:`ServiceClient.connect` retries a refused
  or reset connection with exponentially growing, jittered delays
  (a respawning fleet worker or a restarting daemon comes back within
  a few hundred milliseconds; the jitter keeps a thundering herd of
  clients from reconnecting in lockstep).
* **request retry** — a request that dies at the transport level
  (connection reset, server gone mid-answer) reconnects and resends,
  but **only for idempotent ops** (an op whose
  :data:`~repro.service.protocol.OPS` spec says ``idempotent``; every
  current op is a pure read/compute, listed in :data:`IDEMPOTENT_OPS`).
  Structured errors from the server are answers, never retried.
* **deadline propagation** — a ``classify(deadline=...)`` budget is a
  *total* budget: every (re)send carries the remaining budget (shrunk
  by elapsed time including backoff sleeps), the server honors it
  server-side, and a locally exhausted budget raises
  :class:`~repro.errors.TaskTimeout` without another round trip.

Closing the client from another thread while a request is being read
is safe: the reader raises a clean ``RemoteError`` with ``error_type
== "ClientClosed"`` instead of a bare ``OSError`` or a partial-JSON
decode error.

Usage::

    from repro.service.client import RetryPolicy, ServiceClient

    with ServiceClient.connect("127.0.0.1:7463", retry=RetryPolicy()) as client:
        result = client.classify(circuit="c17", deadline=30.0)
        print(result["rd_percent"])
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Callable

from repro.circuit.netlist import Circuit
from repro.errors import (
    ProtocolError,
    RemoteError,
    ServiceError,
    TaskTimeout,
)
from repro.service import protocol

__all__ = ["IDEMPOTENT_OPS", "RetryPolicy", "ServiceClient"]

#: ops a broken transport may transparently resend
IDEMPOTENT_OPS = frozenset(
    name for name, spec in protocol.OPS.items() if spec.idempotent
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential, jittered backoff.

    ``attempts`` bounds the *total* number of tries (1 = no retry).
    The delay before retry *k* (0-based) is ``base_delay * 2**k``
    capped at ``max_delay``, then spread by ``±jitter`` (a fraction of
    the delay) so a fleet of clients does not reconnect in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def delay(self, attempt: int, rng=None) -> float:
        """The backoff before retry ``attempt`` (0-based), jittered."""
        rng = random.random if rng is None else rng
        base = min(self.max_delay, self.base_delay * (2 ** attempt))
        return base * (1.0 + self.jitter * (2.0 * rng() - 1.0))


class _TransportError(ServiceError):
    """Internal: the connection died mid-request — retriable for
    idempotent ops.  Escapes as a plain :class:`ServiceError` when
    retries are exhausted or not configured."""


class ServiceClient:
    """One persistent connection to a running analysis server (plain
    daemon or fleet front-end — the protocol is identical)."""

    def __init__(
        self,
        sock: socket.socket,
        spec: "str | None" = None,
        timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
    ):
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0
        self._spec = spec
        self._timeout = timeout
        self.retry = retry
        self._closed = False

    # -- connecting -----------------------------------------------------
    @classmethod
    def connect(
        cls,
        spec: str,
        timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> "ServiceClient":
        """Connect to ``host:port`` or a unix socket path, retrying a
        refused/reset connection per ``retry`` (None = one attempt)."""
        return cls(
            cls._open(spec, timeout, retry),
            spec=spec, timeout=timeout, retry=retry,
        )

    @staticmethod
    def _open(
        spec: str, timeout: "float | None", retry: "RetryPolicy | None"
    ) -> socket.socket:
        attempts = retry.attempts if retry is not None else 1
        last_exc: "Exception | None" = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(retry.delay(attempt - 1))
            try:
                if ":" in spec:
                    host, _, port_text = spec.rpartition(":")
                    return socket.create_connection(
                        (host or "127.0.0.1", int(port_text)),
                        timeout=timeout,
                    )
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(spec)
                return sock
            except ValueError as exc:
                # a malformed port number never fixes itself — fail now
                raise ServiceError(
                    f"cannot connect to analysis server at {spec!r}: {exc}"
                ) from exc
            except OSError as exc:
                last_exc = exc
        raise ServiceError(
            f"cannot connect to analysis server at {spec!r} "
            f"after {attempts} attempt(s): {last_exc}"
        ) from last_exc

    def _reconnect(self) -> None:
        if self._spec is None:
            raise ServiceError("cannot reconnect: no address on record")
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()
        # one attempt here: request() owns the backoff/attempt budget
        self._sock = self._open(self._spec, self._timeout, None)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        # the flag first: a reader thread that wakes up mid-request maps
        # its transport error to a clean ClientClosed RemoteError
        self._closed = True
        # shutdown next: it unblocks a reader thread parked in recv()
        # (file.close() alone would deadlock on the buffer lock it holds)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._file.close()
        except OSError:
            pass  # best effort: flushing a dead socket is not an error
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the protocol ---------------------------------------------------
    def request(
        self,
        op: str,
        on_event: "Callable[[dict], None] | None" = None,
        **fields,
    ) -> dict:
        """One logical request: send, stream events to ``on_event``,
        return the final ``result`` (or raise :class:`RemoteError`).

        With a :class:`RetryPolicy` and an idempotent ``op``, a
        transport-level failure reconnects and resends within the
        policy's attempt budget; the ``deadline`` field (if any) is
        treated as a total budget and shrinks across attempts.
        """
        budget = fields.get("deadline")
        t0 = time.monotonic()
        spec = protocol.OPS.get(op)
        retriable = (
            self.retry is not None
            and spec is not None
            and spec.idempotent
            and self._spec is not None
        )
        attempts = self.retry.attempts if retriable else 1
        last_exc: "Exception | None" = None
        for attempt in range(attempts):
            if attempt:
                delay = self.retry.delay(attempt - 1)
                if budget is not None and (
                    time.monotonic() - t0 + delay >= float(budget)
                ):
                    raise TaskTimeout(op, float(budget))
                time.sleep(delay)
                try:
                    self._reconnect()
                except ServiceError as exc:
                    last_exc = exc
                    continue
            send_fields = dict(fields)
            if budget is not None and attempt:
                # the first send carries the caller's budget untouched —
                # the server is authoritative; retries carry what's left
                remaining = float(budget) - (time.monotonic() - t0)
                if remaining <= 0:
                    raise TaskTimeout(op, float(budget))
                send_fields["deadline"] = remaining
            try:
                return self._round_trip(op, send_fields, on_event)
            except _TransportError as exc:
                last_exc = exc
        assert last_exc is not None
        raise ServiceError(
            f"{op} failed after {attempts} attempt(s): {last_exc}"
        ) from last_exc

    def _client_closed(self, cause: BaseException) -> RemoteError:
        error = RemoteError(
            "ClientClosed", "client closed while a request was in flight"
        )
        error.__cause__ = cause
        return error

    def _round_trip(
        self,
        op: str,
        fields: dict,
        on_event: "Callable[[dict], None] | None",
    ) -> dict:
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, "op": op}
        message.update(fields)
        try:
            self._file.write(protocol.encode_line(message))
            self._file.flush()
        except (OSError, ValueError) as exc:
            if self._closed:
                raise self._client_closed(exc) from exc
            raise _TransportError(f"send failed: {exc}") from exc
        while True:
            try:
                line = self._file.readline(protocol.MAX_LINE + 2)
            except (OSError, ValueError) as exc:
                if self._closed:
                    raise self._client_closed(exc) from exc
                raise _TransportError(f"receive failed: {exc}") from exc
            if not line:
                if self._closed:
                    raise self._client_closed(
                        ConnectionResetError("closed locally")
                    )
                raise _TransportError(
                    "server closed the connection before answering"
                )
            try:
                answer = protocol.decode_line(line)
            except ProtocolError as exc:
                if self._closed:
                    # a torn line from our own shutdown, not the server
                    raise self._client_closed(exc) from exc
                raise
            if answer.get("id") != request_id:
                continue  # a stale event from an abandoned request
            if "event" in answer:
                if on_event is not None:
                    on_event(answer)
                continue
            if answer.get("ok"):
                result = answer.get("result")
                if not isinstance(result, dict):
                    raise ProtocolError("ok response without a result object")
                return result
            error = answer.get("error")
            if not isinstance(error, dict):
                raise ProtocolError("error response without an error object")
            remote = RemoteError(
                str(error.get("type", "ReproError")),
                str(error.get("message", "")),
            )
            retry_after = error.get("retry_after")
            if isinstance(retry_after, (int, float)):
                remote.retry_after = float(retry_after)
            raise remote

    # -- convenience ops ------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")

    def metrics(self) -> dict:
        """The server's telemetry snapshot (``repro-rd metrics --remote``);
        a fleet front-end answers its own registry merged with every
        live worker's."""
        return self.request("metrics")

    def classify(
        self,
        circuit: "Circuit | str | None" = None,
        bench: "str | None" = None,
        criterion: str = "sigma",
        sort: str = "heu2",
        max_accepted: "int | None" = None,
        deadline: "float | None" = None,
        on_event: "Callable[[dict], None] | None" = None,
        cones: bool = False,
    ) -> dict:
        """Classify a suite circuit (by name), ``.bench`` text, or an
        in-memory :class:`~repro.circuit.netlist.Circuit` (serialized to
        ``.bench`` on the wire).  ``deadline`` is a total budget across
        retries, honored server-side from whatever remains per hop.
        ``cones`` asks for cone granularity (the ECO path): the server
        reuses stored cone rows where it can and the result carries a
        ``"cone_stats"`` reuse summary."""
        return self._circuit_request(
            "classify", circuit, bench, on_event,
            criterion=criterion, sort=sort, max_accepted=max_accepted,
            cones=cones, deadline=deadline,
        )

    def tightness(
        self,
        circuit: "Circuit | str | None" = None,
        bench: "str | None" = None,
        criterion: str = "sigma",
        sort: str = "heu2",
        max_accepted: "int | None" = None,
        deadline: "float | None" = None,
        on_event: "Callable[[dict], None] | None" = None,
    ) -> dict:
        """Decide exact vs. approximate membership for one circuit (the
        Lemma-2 gap, via :mod:`repro.verdict`).  The result is a single
        tightness row — verdict counts, both RD percentages, witness
        replays and solver diagnostics — plus fingerprint and session
        stats.  A circuit whose classifier accepts more than
        ``max_accepted`` paths answers a structured ``ClassifyError``."""
        return self._circuit_request(
            "tightness", circuit, bench, on_event,
            criterion=criterion, sort=sort, max_accepted=max_accepted,
            deadline=deadline,
        )

    def signoff(
        self,
        circuit: "Circuit | str | None" = None,
        bench: "str | None" = None,
        k: "int | None" = None,
        slack: "float | None" = None,
        delays: "str | None" = None,
        seed: int = 0,
        deadline: "float | None" = None,
        on_event: "Callable[[dict], None] | None" = None,
    ) -> dict:
        """K-longest (or above-slack) robustly-testable paths of one
        circuit under an annotated delay assignment
        (:mod:`repro.signoff`).  ``delays`` is sidecar-format annotation
        text covering every non-PI gate (the wire never falls back);
        without it the server derives the deterministic seeded
        assignment from ``seed``.  Scan designs fan out client-side —
        one request per capture cone; see
        :func:`repro.signoff.signoff_remote`."""
        return self._circuit_request(
            "signoff", circuit, bench, on_event,
            k=k, slack=slack, delays=delays, seed=seed,
            deadline=deadline,
        )

    def _circuit_request(
        self,
        op: str,
        circuit: "Circuit | str | None",
        bench: "str | None",
        on_event: "Callable[[dict], None] | None",
        **params,
    ) -> dict:
        """Send ``op`` for a suite name, ``.bench`` text or an in-memory
        :class:`~repro.circuit.netlist.Circuit` (serialized to ``.bench``
        with its name).  A parameter left at ``None`` or at a falsy
        default of its :data:`~repro.service.protocol.OPS` spec stays off
        the wire; the server fills it in."""
        fields: dict = {}
        if isinstance(circuit, Circuit):
            from repro.circuit.bench import write_bench

            fields["bench"] = write_bench(circuit)
            fields["name"] = circuit.name
        elif circuit is not None:
            fields["circuit"] = circuit
        if bench is not None:
            fields["bench"] = bench
        schema = protocol.OPS[op].params
        for name, value in params.items():
            default = schema[name].default
            if value is not None and (default or value != default):
                fields[name] = value
        return self.request(op, on_event=on_event, **fields)
