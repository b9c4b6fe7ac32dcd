"""The sharded service fleet: ``repro-rd serve --workers N``.

A front-end acceptor speaking the exact wire protocol of the
single-process daemon (:mod:`repro.service.protocol` — clients cannot
tell the difference), backed by N supervised worker processes each
running :class:`~repro.service.server.AnalysisServer` over its own unix
socket with its own session pool and store handle.

Request path, in order:

1. **Fingerprint routing** — classify requests are consistent-hashed by
   their circuit's ``rdfp1:`` fingerprint
   (:mod:`repro.service.hashring`), so every circuit has a home shard
   whose in-memory implication engine and store pages stay hot.  The
   fingerprint comes from a front-end LRU keyed by request identity
   (:func:`~repro.service.protocol.request_key`: the ``circuit`` name, or
   the ``bench`` digest and ``name``); a miss parses the netlist once
   in a side thread (malformed input therefore fails fast at the
   front-end, before touching a worker).  Workers key their session
   pools by the same identity; their stores stay keyed by fingerprint.
2. **Single-flight coalescing** — concurrent requests with one ``(op,
   request identity, normalized parameters)`` key share one worker
   computation.  The parameters are every field of the op's
   :data:`~repro.service.protocol.OPS` spec, ``deadline`` included,
   with defaults filled in (:func:`~repro.service.protocol.normalize`);
   workers read nothing else, so no field outside the key can change an
   answer.  The identity, not the fingerprint, keys them, so isomorphic
   circuits under different names never share an answer.  The first
   request is the *leader* (it streams
   the worker's ``start`` event and computes); every other joins as a
   *follower* and receives the leader's final answer with
   ``"coalesced": true``.  A failing leader fails its followers with
   the same structured error.
3. **Admission control** — each worker has a bounded pending queue
   (``max_pending``).  A classify routed to a full shard is shed with a
   structured ``Overloaded`` error carrying a ``retry_after`` hint
   instead of buffering without bound.
4. **Failure handling** — a worker that dies or wedges mid-request
   breaks the front-end's backend connection; the front-end drops the
   shard from the ring, pokes the supervisor (which respawns it with
   backoff), and transparently retries a request whose op spec is
   ``idempotent`` once on a surviving shard (waiting up to 5 s for a
   respawn when no shard is up).  An exhausted retry answers a
   structured ``TaskCrashed`` — a client never sees a dropped
   connection for a worker-side failure.

Deadlines propagate: a request's ``deadline`` is a total budget — the
front-end forwards the *remaining* budget after routing/queueing (and
re-shrinks it on a retry), and the worker honors it server-side.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro import __version__
from repro.errors import (
    Overloaded,
    ProtocolError,
    ReproError,
    ServiceError,
    TaskCrashed,
    TaskTimeout,
)
from repro.obs import MetricsRegistry, get_registry
from repro.service import protocol
from repro.service.hashring import HashRing
from repro.service.protocol import OpSpec, request_key
from repro.service.server import (
    JsonLineServer,
    _build_circuit,
    run_until_signalled,
)
from repro.service.supervisor import WorkerSupervisor, unix_rpc
from repro.store.fingerprint import canonical_form

__all__ = ["FleetServer", "coalescing_key", "serve_fleet"]

#: tries per idempotent request: the first, plus one on a surviving
#: shard after a worker dies under it
_RETRY_ATTEMPTS = 2
#: seconds a request waits for a respawn when every shard is down
_REROUTE_WAIT = 5.0


def coalescing_key(spec: OpSpec, circuit_key: tuple, params: dict) -> tuple:
    """The single-flight key of a circuit request: its op, its circuit
    identity (:func:`~repro.service.protocol.request_key`) and the
    parameters :func:`~repro.service.protocol.normalize` returned.
    Workers read nothing else, so one key means one answer."""
    return (spec.name, circuit_key, tuple(sorted(params.items())))


class _WorkerConnError(ServiceError):
    """Transport-level failure against a worker (died, reset, wedged)."""


class _RelayedError(ReproError):
    """A worker answered a structured error; the front-end re-emits the
    wire payload verbatim so the client sees the original ``type`` (and
    ``retry_after`` when present), not a wrapper."""

    def __init__(self, error: dict):
        super().__init__(
            f"{error.get('type', 'ReproError')}: {error.get('message', '')}"
        )
        self.error = dict(error)


class FleetServer(JsonLineServer):
    """Front-end acceptor + supervisor for N worker processes."""

    _metric_prefix = "fleet"
    _request_prefix = "flt"

    def __init__(
        self,
        workers: int = 2,
        store: "str | None" = None,
        concurrency: int = 8,
        default_deadline: "float | None" = None,
        max_accepted: "int | None" = None,
        max_pending: int = 64,
        socket_dir: "str | None" = None,
        health_interval: float = 0.5,
        health_timeout: float = 2.0,
        max_health_failures: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        super().__init__()
        self.max_pending = max_pending
        self.concurrency = concurrency
        self.health_timeout = health_timeout
        self._socket_dir = socket_dir or tempfile.mkdtemp(prefix="repro-fleet-")
        self._own_socket_dir = socket_dir is None
        self.supervisor = WorkerSupervisor(
            count=workers,
            socket_dir=self._socket_dir,
            store=store,
            concurrency=concurrency,
            default_deadline=default_deadline,
            max_accepted=max_accepted,
            health_interval=health_interval,
            health_timeout=health_timeout,
            max_health_failures=max_health_failures,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
            on_worker_up=self._worker_up,
            on_worker_down=self._worker_down,
        )
        self.ring = HashRing()
        self._available = asyncio.Event()
        self._pools: "dict[int, list]" = {}  # worker -> idle (reader, writer)
        self._pending: "dict[int, int]" = {i: 0 for i in range(workers)}
        self._inflight: "dict[tuple, asyncio.Future]" = {}
        self._fingerprints: "OrderedDict[tuple, str]" = OrderedDict()
        self._fp_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-fleet-fp"
        )

    # -- lifecycle ------------------------------------------------------
    async def start(self, host=None, port=None, socket_path=None) -> str:
        """Spawn and readiness-check every worker, then bind the
        front-end listener (clients never reach an empty fleet)."""
        await self.supervisor.start()
        return await super().start(
            host=host, port=port, socket_path=socket_path
        )

    async def _drained(self) -> None:
        await self.supervisor.stop()

    def _on_close(self) -> None:
        for pool in self._pools.values():
            for _reader, bw in pool:
                bw.close()
        self._pools.clear()
        self._fp_executor.shutdown(wait=False)
        if self._own_socket_dir:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    # -- ring membership (supervisor callbacks, event-loop thread) ------
    def _worker_up(self, index: int) -> None:
        self.ring.add(index)
        self._available.set()

    def _worker_down(self, index: int) -> None:
        self.ring.remove(index)
        if not len(self.ring):
            self._available.clear()
        for reader, bw in self._pools.pop(index, []):
            bw.close()

    def _failure(self, exc: Exception, request_id, req_id: str) -> dict:
        if not isinstance(exc, _RelayedError):
            return super()._failure(exc, request_id, req_id)
        self.counters.errors += 1
        get_registry().counter("fleet.relayed_errors").inc()
        return {
            "id": request_id, "ok": False,
            "error": dict(exc.error), "request_id": req_id,
        }

    # -- ops ------------------------------------------------------------
    async def _op_ping(self) -> dict:
        return {
            "server": "repro-rd-fleet",
            "version": __version__,
            "workers": len(self.supervisor.workers),
        }

    async def _op_stats(self) -> dict:
        registry = get_registry()
        workers = []
        for handle in self.supervisor.describe():
            handle["pending"] = self._pending.get(handle["index"], 0)
            handle["routed"] = handle["index"] in self.ring
            workers.append(handle)
        return {
            "server": "repro-rd-fleet",
            "counters": self.counters.to_dict(),
            "workers": workers,
            "respawns": self.supervisor.respawn_total,
            "coalesce_hits": registry.counter("fleet.coalesce_hits").value,
            "cone_hits": registry.counter("fleet.cone_hits").value,
            "shed": registry.counter("fleet.shed").value,
            "max_pending": self.max_pending,
        }

    async def _op_metrics(self) -> dict:
        """Front-end registry (fleet.*) merged with every live worker's
        snapshot — one fleet-wide telemetry view."""
        merged = MetricsRegistry()
        merged.merge(get_registry().snapshot())
        for handle in self.supervisor.workers:
            if not handle.alive():
                continue
            try:
                answer = await unix_rpc(
                    handle.socket_path, {"op": "metrics"},
                    self.health_timeout,
                )
            except (asyncio.TimeoutError, ServiceError, OSError):
                continue
            if answer.get("ok"):
                result = answer.get("result") or {}
                if isinstance(result.get("metrics"), dict):
                    merged.merge(result["metrics"])
        return {
            "server": "repro-rd-fleet",
            "version": __version__,
            "uptime": round(time.time() - self.counters.started, 3),
            "workers": len(self.supervisor.workers),
            "metrics": merged.snapshot(),
        }

    # -- circuit ops: fingerprint, coalesce, dispatch --------------------
    async def _op_circuit(self, message, spec, params, writer, req_id) -> dict:
        t0 = time.monotonic()
        circuit_key = request_key(message)
        fingerprint = await self._fingerprint_for(circuit_key, message)
        key = coalescing_key(spec, circuit_key, params)
        registry = get_registry()
        inflight = self._inflight.get(key)
        if inflight is not None:
            registry.counter("fleet.coalesce_hits").inc()
            result = dict(await asyncio.shield(inflight))
            result["coalesced"] = True
            return result
        registry.counter("fleet.coalesce_leaders").inc()
        future = asyncio.get_event_loop().create_future()
        self._inflight[key] = future
        try:
            result = await self._dispatch(
                message, spec, fingerprint, writer, t0, params["deadline"]
            )
            result["coalesced"] = False
            cone_stats = result.get("cone_stats")
            if isinstance(cone_stats, dict):
                # cone-level reuse reported by the worker (ECO requests)
                registry.counter("fleet.cone_hits").inc(
                    int(cone_stats.get("reused", 0))
                )
            future.set_result(result)
            return result
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consumed: no "never retrieved" warning
            raise
        finally:
            del self._inflight[key]

    async def _fingerprint_for(self, circuit_key: tuple, message: dict) -> str:
        registry = get_registry()
        cached = self._fingerprints.get(circuit_key)
        if cached is not None:
            registry.counter("fleet.fingerprint_hits").inc()
            self._fingerprints.move_to_end(circuit_key)
            return cached
        registry.counter("fleet.fingerprint_misses").inc()
        loop = asyncio.get_event_loop()
        fingerprint = await loop.run_in_executor(
            self._fp_executor, self._compute_fingerprint, message
        )
        self._fingerprints[circuit_key] = fingerprint
        while len(self._fingerprints) > 4096:
            self._fingerprints.popitem(last=False)
        return fingerprint

    @staticmethod
    def _compute_fingerprint(message: dict) -> str:
        return canonical_form(_build_circuit(message)).fingerprint

    async def _dispatch(
        self, message, spec: OpSpec, fingerprint, writer, t0, deadline
    ) -> dict:
        """Route, admit and forward one request; transparently retry a
        transport-level worker failure on the (re-routed) ring when the
        op is idempotent."""
        registry = get_registry()
        label = message.get("circuit") or message.get(
            "name", fingerprint[:18]
        )
        last_error = "worker connection failed"
        attempts = _RETRY_ATTEMPTS if spec.idempotent else 1
        for attempt in range(attempts):
            worker = await self._route(fingerprint)
            if self._pending.get(worker, 0) >= self.max_pending:
                registry.counter("fleet.shed").inc()
                mean = registry.histogram("fleet.request_seconds").mean
                raise Overloaded(
                    f"worker {worker} has {self.max_pending} requests "
                    "pending; retry later",
                    retry_after=max(
                        0.05, mean * self.max_pending / self.concurrency
                    ),
                )
            self._pending[worker] = self._pending.get(worker, 0) + 1
            registry.counter(f"fleet.worker.{worker}.requests").inc()
            try:
                return await self._forward(
                    worker, message, writer, t0, deadline
                )
            except _WorkerConnError as exc:
                last_error = str(exc)
                registry.counter("fleet.worker_errors").inc()
                # drop the shard now; the supervisor confirms (and
                # respawns) on its poked health check, re-adding the
                # shard once its replacement answers pings
                self._worker_down(worker)
                self.supervisor.note_failure(worker)
                if attempt + 1 < attempts:
                    registry.counter("fleet.retries").inc()
            finally:
                self._pending[worker] = max(
                    0, self._pending.get(worker, 1) - 1
                )
        raise TaskCrashed(str(label), last_error)

    async def _route(self, fingerprint: str) -> int:
        try:
            return self.ring.route(fingerprint)
        except ServiceError:
            # every shard is down — wait briefly for a respawn instead
            # of failing a burst that a 100ms recovery would absorb
            try:
                await asyncio.wait_for(
                    self._available.wait(), _REROUTE_WAIT
                )
            except asyncio.TimeoutError:
                raise ServiceError(
                    "no workers available (all shards down)"
                ) from None
            return self.ring.route(fingerprint)

    async def _forward(
        self, worker: int, message, writer, t0, deadline
    ) -> dict:
        """One request over an exclusive backend connection; relays
        ``start`` events to the leader's client as they stream."""
        reader, bw = await self._checkout(worker)
        reusable = False
        try:
            downstream = dict(message)
            if deadline is not None:
                remaining = float(deadline) - (time.monotonic() - t0)
                if remaining <= 0:
                    reusable = True  # never wrote to the connection
                    raise TaskTimeout(
                        str(message.get("circuit", "classify")),
                        float(deadline),
                    )
                downstream["deadline"] = remaining
            try:
                bw.write(protocol.encode_line(downstream))
                await bw.drain()
                while True:
                    line = await reader.readline()
                    if not line:
                        raise ConnectionResetError("worker closed mid-request")
                    answer = protocol.decode_line(line)
                    if "event" in answer:
                        answer.setdefault("worker", worker)
                        try:
                            await self._send(writer, answer)
                        except (ConnectionError, OSError):
                            pass  # client left; finish for the followers
                        continue
                    break
            except (ConnectionError, OSError, ValueError, ProtocolError) as exc:
                # a ProtocolError here is a torn line from a dying
                # worker (half-written JSON at EOF), not client input
                raise _WorkerConnError(
                    f"worker {worker} failed mid-request: {exc}"
                ) from exc
            if answer.get("ok"):
                result = answer.get("result")
                if not isinstance(result, dict):
                    raise _WorkerConnError(
                        f"worker {worker} sent a malformed response"
                    )
                result["worker"] = worker
                reusable = True
                return result
            error = answer.get("error")
            if not isinstance(error, dict):
                raise _WorkerConnError(
                    f"worker {worker} sent a malformed error"
                )
            reusable = True  # a structured error leaves the stream clean
            raise _RelayedError(error)
        finally:
            if reusable and not self._draining and worker in self.ring:
                self._checkin(worker, reader, bw)
            else:
                bw.close()

    # -- backend connection pool ----------------------------------------
    async def _checkout(self, worker: int):
        pool = self._pools.setdefault(worker, [])
        while pool:
            reader, bw = pool.pop()
            if not bw.is_closing() and not reader.at_eof():
                return reader, bw
            bw.close()
        socket_path = self.supervisor.workers[worker].socket_path
        try:
            return await asyncio.wait_for(
                asyncio.open_unix_connection(
                    socket_path, limit=protocol.MAX_LINE
                ),
                self.health_timeout,
            )
        except (asyncio.TimeoutError, OSError) as exc:
            raise _WorkerConnError(
                f"cannot reach worker {worker}: {exc}"
            ) from exc

    def _checkin(self, worker: int, reader, bw) -> None:
        pool = self._pools.setdefault(worker, [])
        if len(pool) < self.concurrency:
            pool.append((reader, bw))
        else:
            bw.close()


async def serve_fleet(
    host: "str | None" = None,
    port: "int | None" = None,
    socket_path: "str | None" = None,
    store: "str | None" = None,
    workers: int = 2,
    concurrency: int = 8,
    default_deadline: "float | None" = None,
    max_accepted: "int | None" = None,
    max_pending: int = 64,
    ready=None,
) -> int:
    """Run the fleet until SIGTERM/SIGINT; exit code 0 on a drained
    SIGTERM, 130 on SIGINT (the CLI Ctrl-C convention)."""
    server = FleetServer(
        workers=workers,
        store=store,
        concurrency=concurrency,
        default_deadline=default_deadline,
        max_accepted=max_accepted,
        max_pending=max_pending,
    )
    address = await server.start(
        host=host, port=port, socket_path=socket_path
    )
    if ready is not None:
        ready(address)
    return await run_until_signalled(server)
