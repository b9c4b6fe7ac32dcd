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
  in-flight request finish and answer, then close the remaining (idle)
  connections and exit 0.
"""

from __future__ import annotations

import asyncio
import hashlib
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Lock

from repro import __version__
from repro.circuit.bench import parse_bench
from repro.circuit.netlist import Circuit
from repro.classify.conditions import Criterion
from repro.classify.session import CircuitSession
from repro.errors import CircuitError, ProtocolError, ReproError, TaskTimeout
from repro.experiments.supervisor import default_task_budget
from repro.gen.suite import get_circuit
from repro.obs import get_registry, span
from repro.service import protocol
from repro.sorting.heuristics import pin_order_sort
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

_CRITERIA = {"fs": Criterion.FS, "nr": Criterion.NR, "sigma": Criterion.SIGMA_PI}


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


def _resolve_sort(session: CircuitSession, kind: str):
    if kind == "pin":
        return pin_order_sort(session.circuit)
    if kind == "heu1":
        return session.heuristic1_sort()
    if kind == "heu2":
        return session.heuristic2_sort()
    if kind == "heu2inv":
        return session.heuristic2_sort().inverted()
    raise ProtocolError(
        f"unknown sort {kind!r}; valid: pin, heu1, heu2, heu2inv"
    )


class JsonLineServer:
    """Shared lifecycle of every JSON-lines daemon in this package.

    Owns the listener, the connection set and the graceful-drain state
    machine; subclasses implement :meth:`_serve_request` (answer one
    decoded wire line on the still-open connection) and may hook
    :meth:`_on_close` for resource teardown.  :class:`AnalysisServer`
    is the single-process classifier daemon;
    :class:`~repro.service.fleet.FleetServer` is the sharding
    front-end — both speak the identical protocol through this base,
    so a client cannot tell which one it connected to.
    """

    def __init__(self, drain_timeout: float = 30.0):
        self.drain_timeout = drain_timeout
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
            await asyncio.wait(pending, timeout=self.drain_timeout)
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
        drain_timeout: float = 30.0,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        super().__init__(drain_timeout=drain_timeout)
        self.store = as_store(store)
        self.concurrency = concurrency
        self.default_deadline = default_deadline
        self.max_accepted = max_accepted
        self.counters = _Counters()
        self.sessions = SessionPool(self.store, max_idle=2 * concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-classify"
        )
        self._admission = asyncio.Semaphore(concurrency)
        self._request_seq = 0

    def _on_close(self) -> None:
        self._executor.shutdown(wait=False)
        if self.store is not None:
            self.store.close()

    async def _serve_request(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one request; every failure is a structured error
        response on the same connection, never a disconnect.

        Every message the server sends for this request carries the
        server-assigned ``request_id`` (``req-<n>``), so a ``start``
        event, its result/error and the server's telemetry correlate.
        """
        self.counters.requests += 1
        self._request_seq += 1
        req_id = f"req-{self._request_seq}"
        registry = get_registry()
        registry.counter("service.requests").inc()
        in_flight = registry.gauge("service.in_flight")
        in_flight.inc()
        started = time.perf_counter()
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            op = protocol.validate_request(message)
            registry.counter(f"service.op.{op}").inc()
            if op == "ping":
                result = {"server": "repro-rd", "version": __version__}
            elif op == "stats":
                result = await self._op_stats()
            elif op == "metrics":
                result = self._op_metrics()
            elif op == "tightness":
                result = await self._op_tightness(message, writer, req_id)
            elif op == "signoff":
                result = await self._op_signoff(message, writer, req_id)
            else:
                result = await self._op_classify(message, writer, req_id)
            await self._send(
                writer, protocol.ok_response(request_id, result, req_id)
            )
            self.counters.ok += 1
            registry.counter("service.ok").inc()
        except TaskTimeout as exc:
            self.counters.timeouts += 1
            registry.counter("service.deadline_aborts").inc()
            await self._send(
                writer, protocol.error_response(request_id, exc, req_id)
            )
        except ReproError as exc:
            self.counters.errors += 1
            registry.counter("service.errors").inc()
            await self._send(
                writer, protocol.error_response(request_id, exc, req_id)
            )
        except Exception as exc:  # defensive: never kill the connection
            self.counters.errors += 1
            registry.counter("service.errors").inc()
            await self._send(
                writer, protocol.error_response(request_id, exc, req_id)
            )
        finally:
            in_flight.dec()
            registry.histogram("service.request_seconds").observe(
                time.perf_counter() - started
            )

    # -- ops ------------------------------------------------------------
    def _op_metrics(self) -> dict:
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

    async def _op_classify(
        self, message: dict, writer: asyncio.StreamWriter, req_id: str
    ) -> dict:
        criterion_name = message.get("criterion", "sigma")
        if criterion_name not in _CRITERIA:
            raise ProtocolError(
                f"unknown criterion {criterion_name!r}; valid: "
                f"{', '.join(sorted(_CRITERIA))}"
            )
        criterion = _CRITERIA[criterion_name]
        sort_kind = message.get("sort", "heu2")
        max_accepted = message.get("max_accepted", self.max_accepted)
        if max_accepted is not None and not isinstance(max_accepted, int):
            raise ProtocolError("'max_accepted' must be an integer")
        cones = message.get("cones", False)
        if not isinstance(cones, bool):
            raise ProtocolError("'cones' must be a boolean")
        if cones and sort_kind not in ("pin", "heu1", "heu2"):
            raise ProtocolError(
                f"sort {sort_kind!r} is not available at cone granularity; "
                "valid: pin, heu1, heu2"
            )
        return await self._run_session_op(
            message, writer, req_id,
            self._classify, criterion, sort_kind, max_accepted, cones,
        )

    async def _op_tightness(
        self, message: dict, writer: asyncio.StreamWriter, req_id: str
    ) -> dict:
        """Exact-vs-approximate verdicts for one circuit (repro.verdict)."""
        criterion_name = message.get("criterion", "sigma")
        if criterion_name not in _CRITERIA:
            raise ProtocolError(
                f"unknown criterion {criterion_name!r}; valid: "
                f"{', '.join(sorted(_CRITERIA))}"
            )
        criterion = _CRITERIA[criterion_name]
        sort_kind = message.get("sort", "heu2")
        if sort_kind not in ("pin", "heu1", "heu2", "heu2inv"):
            raise ProtocolError(
                f"unknown sort {sort_kind!r}; valid: pin, heu1, heu2, heu2inv"
            )
        max_accepted = message.get("max_accepted", self.max_accepted)
        if max_accepted is not None and not isinstance(max_accepted, int):
            raise ProtocolError("'max_accepted' must be an integer")
        return await self._run_session_op(
            message, writer, req_id,
            self._tightness, criterion, sort_kind, max_accepted,
        )

    async def _op_signoff(
        self, message: dict, writer: asyncio.StreamWriter, req_id: str
    ) -> dict:
        """K-longest / above-slack robustly-testable paths (repro.signoff)."""
        k = message.get("k")
        slack = message.get("slack")
        if k is not None and slack is not None:
            raise ProtocolError("pass either 'k' or 'slack', not both")
        if k is not None and (not isinstance(k, int) or k < 1):
            raise ProtocolError("'k' must be an integer >= 1")
        if slack is not None and not isinstance(slack, (int, float)):
            raise ProtocolError("'slack' must be a number")
        exact = message.get("exact", False)
        if not isinstance(exact, bool):
            raise ProtocolError("'exact' must be a boolean")
        delays_text = message.get("delays")
        if delays_text is not None and not isinstance(delays_text, str):
            raise ProtocolError("'delays' must be annotation text")
        seed = message.get("seed", 0)
        if not isinstance(seed, int):
            raise ProtocolError("'seed' must be an integer")
        return await self._run_session_op(
            message, writer, req_id,
            self._signoff, k, slack, exact, delays_text, seed,
        )

    async def _run_session_op(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        req_id: str,
        work: "Callable[..., dict]",
        *args,
    ) -> dict:
        """Run ``work(session, *args)`` on a pooled session under the
        request's deadline, after streaming the ``start`` event."""
        deadline = message.get("deadline", self.default_deadline)
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise ProtocolError("'deadline' must be a number of seconds")

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
                self._executor, self._leased, key, session, work, *args
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
        *args,
    ) -> dict:
        try:
            return work(session, *args)
        finally:
            self.sessions.checkin(key, session)

    def _signoff(
        self,
        session: CircuitSession,
        k: "int | None",
        slack: "float | None",
        exact: bool,
        delays_text: "str | None",
        seed: int,
    ) -> dict:
        from repro.signoff import DEFAULT_K, signoff_core
        from repro.timing.annotate import (
            delays_digest,
            materialize_delays,
            parse_delay_lines,
        )

        if k is None and slack is None:
            k = DEFAULT_K
        circuit = session.circuit
        if delays_text is None:
            delays = materialize_delays(circuit, None, seed=seed)
        else:
            # the wire form must cover every non-PI gate: no silent
            # fallback, so client and server can never disagree
            delays = materialize_delays(
                circuit,
                parse_delay_lines(delays_text, source="request"),
                strict=True,
            )
        rows, counters, source = signoff_core(
            circuit,
            delays,
            k=k,
            slack=slack,
            exact=exact,
            session=session,
        )
        return {
            "circuit": circuit.name,
            "mode": "k" if k is not None else "slack",
            "k": k,
            "slack": slack,
            "exact": exact,
            "delays_digest": delays_digest(delays, canonical=session.canonical),
            "rows": [row.table_row() for row in rows],
            "counters": counters,
            "source": source,
            "fingerprint": session.fingerprint,
            "session": session.stats.to_dict(),
        }

    def _tightness(
        self,
        session: CircuitSession,
        criterion: Criterion,
        sort_kind: str,
        max_accepted: "int | None",
    ) -> dict:
        from repro.verdict import tightness_row

        row = tightness_row(
            session.circuit,
            criterion,
            sort_kind,
            session=session,
            max_accepted=max_accepted,
        )
        payload = row.to_dict()
        payload["fingerprint"] = session.fingerprint
        payload["session"] = session.stats.to_dict()
        return payload

    def _classify(
        self,
        session: CircuitSession,
        criterion: Criterion,
        sort_kind: str,
        max_accepted: "int | None",
        cones: bool = False,
    ) -> dict:
        if cones:
            # cone granularity: reuse stored cone rows (ECO flow);
            # the sort stays symbolic and is derived per cone
            from repro.incremental import cone_classify

            report = cone_classify(
                session.circuit,
                criterion=criterion,
                sort=sort_kind if criterion is Criterion.SIGMA_PI else None,
                max_accepted=max_accepted,
                store=session.store,
                session_stats=session.stats,
            )
            payload = classification_payload(
                report.result,
                fingerprint=session.fingerprint,
                sort_kind=(
                    sort_kind if criterion is Criterion.SIGMA_PI else None
                ),
                session_stats=session.stats.to_dict(),
            )
            payload["cone_stats"] = report.reuse_stats()
            return payload
        sort = None
        if criterion is Criterion.SIGMA_PI:
            sort = _resolve_sort(session, sort_kind)
        result = session.classify(
            criterion, sort=sort, max_accepted=max_accepted
        )
        return classification_payload(
            result,
            fingerprint=session.fingerprint,
            sort_kind=sort_kind if sort is not None else None,
            session_stats=session.stats.to_dict(),
        )


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
