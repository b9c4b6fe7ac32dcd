"""The analysis daemon: ``repro-rd serve``.

A stdlib-only asyncio server speaking the JSON-lines protocol of
:mod:`repro.service.protocol` over TCP or a unix socket.  Requests are
classified in a thread pool through a *session pool* shared across
connections.  Sessions are keyed by request identity
(:func:`request_key`: the suite name, or the ``.bench`` text digest and
``name``), so a repeated request takes an idle session without
rebuilding or re-fingerprinting its circuit, and answers with the name
it asked for.  The result store stays keyed by fingerprint: isomorphic
circuits under different keys share every stored result, read through
and written back to disk when the server was started with a store.

Execution discipline:

* **Bounded concurrency** — at most ``concurrency`` classifications run
  at once (an :class:`asyncio.Semaphore` gates admission; the thread
  pool has exactly that many workers).  Further requests queue.
* **Per-request deadlines** — each classify carries a wall-clock budget
  (the request's ``deadline`` field, the server default, or the
  supervisor rule :func:`~repro.experiments.supervisor.default_task_budget`
  applied to the circuit's exact path count).  A blown deadline answers
  with a structured :class:`~repro.errors.TaskTimeout` error *on the
  still-open connection*; the abandoned thread finishes in the
  background and its session returns to the pool only afterwards, so a
  timed-out session is never handed to two requests at once.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, let every
  in-flight request finish and answer (for up to 30 s, then cancel
  it), then close the remaining (idle) connections and exit 0.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock

from repro import __version__
from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.classify.conditions import CRITERIA, Criterion
from repro.classify.session import CircuitSession
from repro.errors import CircuitError, ProtocolError, TaskTimeout
from repro.experiments.supervisor import default_task_budget
from repro.gen.suite import get_circuit
from repro.obs import get_registry, span
from repro.service import protocol
from repro.service.protocol import request_key
from repro.store.db import ResultStore, as_store
from repro.store.fingerprint import canonical_form
from repro.util.serialize import classification_payload

__all__ = [
    "AnalysisServer",
    "JsonLineServer",
    "request_key",
    "run_until_signalled",
    "serve",
]

#: seconds a drain waits for in-flight requests before cancelling them
_DRAIN_TIMEOUT = 30.0


def _build_circuit(message: dict) -> Circuit:
    key = request_key(message)
    if key[0] == "bench":
        return parse_bench(message["bench"], name=key[2])
    try:
        return get_circuit(key[1])
    except KeyError as exc:
        # suite lookup errors become CircuitError so remote callers can
        # dispatch on the same type as for a malformed netlist
        raise CircuitError(str(exc.args[0])) from exc


class SessionPool:
    """Idle :class:`CircuitSession` objects keyed by :func:`request_key`.

    A hit hands back an idle session without building or fingerprinting
    anything; only a miss builds the circuit and its canonical form (the
    ``service.prepare`` span).  Each session's fingerprint is computed
    from exactly the circuit its key names, and the store behind every
    session is keyed by that fingerprint, so isomorphic circuits under
    different keys still share stored results.

    Sessions are not thread-safe (they share one implication engine), so
    a checked-out session belongs to exactly one request until it is
    checked back in.  The pool is bounded: beyond ``max_idle`` idle
    sessions the oldest key's surplus is dropped (its state is only a
    cache — with a store behind it nothing is lost).
    """

    def __init__(self, store: "ResultStore | None", max_idle: int = 16):
        self._store = store
        self._max_idle = max_idle
        self._idle: "dict[tuple, list[CircuitSession]]" = {}
        self._lock = Lock()

    def checkout(self, message: dict) -> "tuple[tuple, CircuitSession]":
        """``(key, session)`` for a request; hand both to :meth:`checkin`."""
        key = request_key(message)
        registry = get_registry()
        with self._lock:
            idle = self._idle.get(key)
            if idle:
                session = idle.pop()
                if not idle:
                    del self._idle[key]
                registry.counter("service.pool_hits").inc()
                return key, session
        registry.counter("service.pool_misses").inc()
        with span("service.prepare", kind=key[0]):
            circuit = _build_circuit(message)
            session = CircuitSession(
                circuit, store=self._store, _canon=canonical_form(circuit)
            )
        return key, session

    def checkin(self, key: tuple, session: CircuitSession) -> None:
        with self._lock:
            if sum(len(v) for v in self._idle.values()) >= self._max_idle:
                # drop the least-recently-stocked key's sessions
                oldest = next(iter(self._idle), None)
                if oldest is not None:
                    del self._idle[oldest]
            self._idle.setdefault(key, []).append(session)

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._idle.values())


@dataclass
class _Counters:
    """Lifetime counters, reported by the ``stats`` op."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    started: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "uptime": round(time.time() - self.started, 3),
        }


class _Connection:
    """Per-connection state the drain logic inspects."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class JsonLineServer:
    """Shared lifecycle of every JSON-lines daemon in this package.

    Owns the listener, the connection set, the graceful-drain state
    machine and request dispatch: each request is checked by
    :func:`~repro.service.protocol.normalize` and answered by the
    subclass's ``_op_<name>()`` for an op without a circuit, or by
    :meth:`_op_circuit` for an op with one.  :class:`AnalysisServer` is
    the single-process classifier daemon;
    :class:`~repro.service.fleet.FleetServer` is the sharding front-end
    — both speak the identical protocol through this base, so a client
    cannot tell which one it connected to.
    """

    #: prefix of this server's metric names and of its request ids
    _metric_prefix = "service"
    _request_prefix = "req"

    def __init__(self):
        self.counters = _Counters()
        self._request_seq = 0
        self._server: "asyncio.base_events.Server | None" = None
        self._connections: "set[_Connection]" = set()
        self._tasks: "set[asyncio.Task]" = set()
        self._shutdown = asyncio.Event()
        self._draining = False

    # -- lifecycle ------------------------------------------------------
    async def start(
        self,
        host: "str | None" = None,
        port: "int | None" = None,
        socket_path: "str | None" = None,
    ) -> str:
        """Bind and listen; returns a printable address (the actual port
        when ``port=0`` was requested)."""
        if (socket_path is None) == (port is None):
            raise ValueError("need exactly one of port= or socket_path=")
        if socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=socket_path, limit=protocol.MAX_LINE
            )
            return socket_path
        self._server = await asyncio.start_server(
            self._on_connect, host or "127.0.0.1", port,
            limit=protocol.MAX_LINE,
        )
        bound = self._server.sockets[0].getsockname()
        return f"{bound[0]}:{bound[1]}"

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent, signal-handler safe)."""
        self._shutdown.set()

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and return."""
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # wake idle connections (blocked reading the next request); busy
        # ones finish their in-flight request, answer, then exit
        for conn in list(self._connections):
            if not conn.busy:
                conn.writer.close()
        pending = list(self._tasks)
        if pending:
            await asyncio.wait(pending, timeout=_DRAIN_TIMEOUT)
        leftover = list(self._tasks)
        for task in leftover:
            task.cancel()
        if leftover:
            # let the cancelled connection handlers run their finallys so
            # every peer sees FIN before the loop stops — otherwise a
            # client blocked in recv() waits forever on a half-dead socket
            await asyncio.wait(leftover, timeout=5.0)
        await self._drained()
        self.close()

    async def _drained(self) -> None:
        """Hook: runs after in-flight requests finished, before close()
        (the fleet tears its worker processes down here)."""

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
        self._on_close()

    def _on_close(self) -> None:
        """Hook: release subclass resources (executors, stores, ...)."""

    # -- connection handling --------------------------------------------
    def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        task = asyncio.ensure_future(self._client_loop(reader, conn))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _client_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        writer = conn.writer
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    # over-long line (framing is unrecoverable) or reset
                    await self._send(
                        writer,
                        protocol.error_response(
                            None, ProtocolError("line too long")
                        ),
                    )
                    break
                if not line:
                    break
                conn.busy = True
                try:
                    await self._serve_request(line, writer)
                finally:
                    conn.busy = False
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_line(message))
        await writer.drain()

    async def _serve_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one request; every failure is a structured error
        response on the same connection, never a disconnect.

        Every message the server sends for this request carries the
        server-assigned ``request_id`` (``req-<n>``; ``flt-<n>`` from a
        fleet front end), so a ``start`` event, its result/error and the
        server's telemetry correlate.
        """
        self.counters.requests += 1
        self._request_seq += 1
        req_id = f"{self._request_prefix}-{self._request_seq}"
        prefix = self._metric_prefix
        registry = get_registry()
        registry.counter(f"{prefix}.requests").inc()
        in_flight = registry.gauge(f"{prefix}.in_flight")
        in_flight.inc()
        started = time.perf_counter()
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            spec, params = protocol.normalize(message)
            registry.counter(f"{prefix}.op.{spec.name}").inc()
            if spec.circuit:
                result = await self._op_circuit(
                    message, spec, params, writer, req_id
                )
            else:
                result = await getattr(self, f"_op_{spec.name}")()
            await self._send(
                writer, protocol.ok_response(request_id, result, req_id)
            )
            self.counters.ok += 1
            registry.counter(f"{prefix}.ok").inc()
        except Exception as exc:  # never kill the connection
            await self._send(writer, self._failure(exc, request_id, req_id))
        finally:
            in_flight.dec()
            registry.histogram(f"{prefix}.request_seconds").observe(
                time.perf_counter() - started
            )

    def _failure(self, exc: Exception, request_id, req_id: str) -> dict:
        """Count a failed request and build its error response."""
        self.counters.errors += 1
        get_registry().counter(f"{self._metric_prefix}.errors").inc()
        return protocol.error_response(request_id, exc, req_id)

    async def _op_circuit(
        self,
        message: dict,
        spec: protocol.OpSpec,
        params: dict,
        writer: asyncio.StreamWriter,
        req_id: str,
    ) -> dict:
        raise NotImplementedError


class AnalysisServer(JsonLineServer):
    """The daemon behind ``repro-rd serve`` (and the service tests).

    Lifecycle: :meth:`start` binds the socket, :meth:`run` serves until
    :meth:`request_shutdown` (wired to SIGTERM/SIGINT by :func:`serve`)
    and then drains, :meth:`close` releases everything.
    """

    def __init__(
        self,
        store: "ResultStore | str | None" = None,
        concurrency: int = 8,
        default_deadline: "float | None" = None,
        max_accepted: "int | None" = None,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        super().__init__()
        self.store = as_store(store)
        self.concurrency = concurrency
        self.default_deadline = default_deadline
        self.max_accepted = max_accepted
        self.sessions = SessionPool(self.store, max_idle=2 * concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-classify"
        )
        self._admission = asyncio.Semaphore(concurrency)

    def _on_close(self) -> None:
        self._executor.shutdown(wait=False)
        if self.store is not None:
            self.store.close()

    def _failure(self, exc: Exception, request_id, req_id: str) -> dict:
        if not isinstance(exc, TaskTimeout):
            return super()._failure(exc, request_id, req_id)
        self.counters.timeouts += 1
        get_registry().counter("service.deadline_aborts").inc()
        return protocol.error_response(request_id, exc, req_id)

    # -- ops: one handler per protocol.OPS entry -------------------------
    async def _op_ping(self) -> dict:
        return {"server": "repro-rd", "version": __version__}

    async def _op_metrics(self) -> dict:
        """The server's full telemetry snapshot (``repro-rd metrics``)."""
        return {
            "server": "repro-rd",
            "version": __version__,
            "uptime": round(time.time() - self.counters.started, 3),
            "metrics": get_registry().snapshot(),
        }

    async def _op_stats(self) -> dict:
        loop = asyncio.get_event_loop()
        result = {
            "counters": self.counters.to_dict(),
            "concurrency": self.concurrency,
            "idle_sessions": self.sessions.idle_count(),
            "store": None,
        }
        if self.store is not None:
            stats = await loop.run_in_executor(self._executor, self.store.stats)
            result["store"] = {
                "path": stats.path,
                "entries": stats.entries,
                "by_kind": stats.by_kind,
                "total_hits": stats.total_hits,
                "size_bytes": stats.size_bytes,
            }
        return result

    async def _op_circuit(self, message, spec, params, writer, req_id) -> dict:
        """Run ``_op_<name>(session, **params)`` on a pooled session under
        the request's deadline, after streaming the ``start`` event."""
        work = getattr(self, f"_op_{spec.name}")
        deadline = params.pop("deadline")
        if deadline is None:
            deadline = self.default_deadline

        loop = asyncio.get_event_loop()
        async with self._admission:
            # cheap prep (pool lookup, or build + counts on a miss) sized
            # the budget; the work itself runs under wait_for below
            key, session, total = await loop.run_in_executor(
                self._executor, self._prepare, message
            )
            name = session.circuit.name
            if deadline is None:
                deadline = default_task_budget(total)
            await self._send(
                writer,
                protocol.event(
                    message.get("id"), "start",
                    server_request_id=req_id,
                    name=name,
                    fingerprint=session.fingerprint,
                    total_logical=total,
                    deadline=round(float(deadline), 3),
                ),
            )
            started = time.monotonic()
            job = loop.run_in_executor(
                self._executor, self._leased, key, session, work, params
            )
            try:
                result = await asyncio.wait_for(job, timeout=float(deadline))
            except asyncio.TimeoutError:
                # the worker thread cannot be interrupted; it finishes in
                # the background and only then returns its session to the
                # pool (see _leased), so no session is ever shared
                raise TaskTimeout(name, float(deadline)) from None
            # the deadline is a hard contract: a worker that blows the
            # budget but completes before the event loop fires the
            # wait_for timer (the GIL can starve the loop for a whole
            # switch interval on sub-ms circuits) still answers TaskTimeout
            if time.monotonic() - started > float(deadline):
                raise TaskTimeout(name, float(deadline))
            return result

    def _prepare(self, message: dict) -> "tuple[tuple, CircuitSession, int]":
        key, session = self.sessions.checkout(message)
        try:
            total = session.counts.total_logical
        except BaseException:
            self.sessions.checkin(key, session)
            raise
        return key, session, total

    def _leased(
        self,
        key: tuple,
        session: CircuitSession,
        work: "Callable[..., dict]",
        params: dict,
    ) -> dict:
        try:
            return work(session, **params)
        finally:
            self.sessions.checkin(key, session)

    def _op_signoff(
        self,
        session: CircuitSession,
        k: "int | None",
        slack: "float | None",
        delays: "str | None",
        seed: int,
    ) -> dict:
        """K-longest / above-slack robustly-testable paths (repro.signoff)."""
        from repro.signoff import DEFAULT_K, signoff_core
        from repro.timing.annotate import (
            delays_digest,
            materialize_delays,
            parse_delay_lines,
        )

        if k is None and slack is None:
            k = DEFAULT_K
        circuit = session.circuit
        if delays is None:
            assignment = materialize_delays(circuit, None, seed=seed)
        else:
            # the wire form must cover every non-PI gate: no silent
            # fallback, so client and server can never disagree
            assignment = materialize_delays(
                circuit,
                parse_delay_lines(delays, source="request"),
                strict=True,
            )
        rows, counters, source = signoff_core(
            circuit,
            assignment,
            k=k,
            slack=slack,
            session=session,
        )
        return {
            "circuit": circuit.name,
            "mode": "k" if k is not None else "slack",
            "k": k,
            "slack": slack,
            "delays_digest": delays_digest(
                assignment, canonical=session.canonical
            ),
            "rows": [row.table_row() for row in rows],
            "counters": counters,
            "source": source,
            "fingerprint": session.fingerprint,
            "session": session.stats.to_dict(),
        }

    def _op_tightness(
        self,
        session: CircuitSession,
        criterion: str,
        sort: str,
        max_accepted: "int | None",
    ) -> dict:
        """Exact-vs-approximate verdicts for one circuit (repro.verdict)."""
        from repro.verdict import tightness_row

        row = tightness_row(
            session.circuit,
            CRITERIA[criterion],
            sort,
            session=session,
            max_accepted=self._budget(max_accepted),
        )
        payload = row.to_dict()
        payload["fingerprint"] = session.fingerprint
        payload["session"] = session.stats.to_dict()
        return payload

    def _op_classify(
        self,
        session: CircuitSession,
        criterion: str,
        sort: str,
        max_accepted: "int | None",
        cones: bool,
    ) -> dict:
        criterion = CRITERIA[criterion]
        max_accepted = self._budget(max_accepted)
        # the sort only shapes a sigma pass
        sort_kind = sort if criterion is Criterion.SIGMA_PI else None
        if cones:
            # cone granularity: reuse stored cone rows (ECO flow);
            # the sort stays symbolic and is derived per cone
            from repro.incremental import cone_classify

            report = cone_classify(
                session.circuit,
                criterion=criterion,
                sort=sort_kind,
                max_accepted=max_accepted,
                store=session.store,
                session_stats=session.stats,
            )
            result = report.result
        else:
            sort_obj = session.sort(sort_kind, max_accepted) if sort_kind else None
            result = session.classify(
                criterion, sort=sort_obj, max_accepted=max_accepted
            )
        payload = classification_payload(
            result,
            fingerprint=session.fingerprint,
            sort_kind=sort_kind,
            session_stats=session.stats.to_dict(),
        )
        if cones:
            payload["cone_stats"] = report.reuse_stats()
        return payload

    def _budget(self, max_accepted: "int | None") -> "int | None":
        """A request's ``max_accepted``, or the server's when it has none."""
        return self.max_accepted if max_accepted is None else max_accepted


async def serve(
    host: "str | None" = None,
    port: "int | None" = None,
    socket_path: "str | None" = None,
    store: "str | None" = None,
    concurrency: int = 8,
    default_deadline: "float | None" = None,
    max_accepted: "int | None" = None,
    ready: "Callable[[str], None] | None" = None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code
    (0 after a drained SIGTERM, 130 when SIGINT triggered the drain —
    the CLI-wide Ctrl-C convention)."""
    server = AnalysisServer(
        store=store,
        concurrency=concurrency,
        default_deadline=default_deadline,
        max_accepted=max_accepted,
    )
    address = await server.start(host=host, port=port, socket_path=socket_path)
    if ready is not None:
        ready(address)
    return await run_until_signalled(server)


async def run_until_signalled(server: JsonLineServer) -> int:
    """Wire SIGTERM/SIGINT to a graceful drain and serve until one
    fires; the exit code encodes which (0 for SIGTERM or a programmatic
    :meth:`~JsonLineServer.request_shutdown`, 130 for SIGINT)."""
    loop = asyncio.get_event_loop()
    fired: "dict[str, int]" = {}

    def on_signal(signum: int) -> None:
        fired.setdefault("signum", signum)
        server.request_shutdown()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, on_signal, signum)
        except (NotImplementedError, RuntimeError):
            signal.signal(
                signum, lambda num, _frame: loop.call_soon_threadsafe(
                    on_signal, num
                )
            )
    await server.run()
    return 130 if fired.get("signum") == signal.SIGINT else 0
