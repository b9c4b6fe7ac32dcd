"""Supervised worker processes for the analysis-service fleet.

Each worker is a real operating-system process running the existing
single-process daemon (:mod:`repro.service.server`) over its own unix
socket — full fault isolation: a crash, OOM kill or wedge takes out one
shard's in-flight requests and nothing else.  The
:class:`WorkerSupervisor` lives inside the front-end process
(:mod:`repro.service.fleet`) and runs one *manage loop* per worker:

* **health checks** — a periodic ``metrics`` ping over a short-lived
  connection with a hard timeout.  A worker whose process is gone is
  *crashed*; one whose process is alive but misses
  ``max_health_failures`` consecutive pings is *wedged* (e.g. stopped,
  deadlocked, or swapping) and is killed outright.
* **respawn with exponential backoff** — a dead worker is restarted on
  the same socket path after a delay that doubles per consecutive
  respawn (``backoff_base`` up to ``backoff_max``) and resets once the
  worker has stayed healthy for 5 s, so a crash-looping shard cannot
  hog the supervisor.  A spawned worker that has not answered its
  readiness ping within 60 s counts as failed.
* **routing callbacks** — ``on_worker_down`` / ``on_worker_up`` fire in
  the supervisor's event loop so the front-end can drop the shard from
  its hash ring (re-routing retries elsewhere) and re-add it when the
  replacement passes its readiness ping.

Workers are spawned with ``start_new_session=True``: a Ctrl-C against
the front-end's terminal reaches only the front-end, which drains
in-flight requests against still-healthy workers before terminating
them — not the workers mid-computation.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

from repro.errors import ServiceError
from repro.obs import get_registry
from repro.service import protocol

__all__ = ["WorkerHandle", "WorkerSupervisor"]

#: seconds a worker must stay healthy before its backoff resets
_STABLE_AFTER = 5.0
#: seconds a spawned worker has to answer its readiness ping
_SPAWN_TIMEOUT = 60.0


async def unix_rpc(socket_path: str, message: dict, timeout: float) -> dict:
    """One request/response round trip on a fresh unix connection.

    Raises :class:`asyncio.TimeoutError` on a wedged peer and
    :class:`ServiceError`/``OSError`` on a dead one.  Streamed events
    are skipped; the first final (non-event) message is returned.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_unix_connection(socket_path, limit=protocol.MAX_LINE),
        timeout,
    )
    try:
        writer.write(protocol.encode_line(message))
        await asyncio.wait_for(writer.drain(), timeout)
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                raise ServiceError(f"{socket_path}: closed before answering")
            answer = protocol.decode_line(line)
            if "event" not in answer:
                return answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class WorkerHandle:
    """One supervised worker process and its lifecycle bookkeeping."""

    def __init__(self, index: int, socket_path: str):
        self.index = index
        self.socket_path = socket_path
        self.proc: "subprocess.Popen | None" = None
        self.state = "starting"  # starting | up | respawning | stopped
        self.respawns = 0  # lifetime respawn count (excludes first spawn)
        self.backoff = 0.0  # next respawn delay; set by the supervisor
        self.health_failures = 0
        self.up_since: "float | None" = None
        self.last_metrics: "dict | None" = None
        self.poke = asyncio.Event()  # front-end: "check this worker NOW"

    @property
    def pid(self) -> "int | None":
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def describe(self) -> dict:
        return {
            "index": self.index,
            "pid": self.pid,
            "state": self.state,
            "alive": self.alive(),
            "respawns": self.respawns,
            "socket": self.socket_path,
        }


class WorkerSupervisor:
    """Spawns, health-checks and respawns the fleet's worker processes."""

    def __init__(
        self,
        count: int,
        socket_dir: str,
        store: "str | None" = None,
        concurrency: int = 8,
        default_deadline: "float | None" = None,
        max_accepted: "int | None" = None,
        health_interval: float = 0.5,
        health_timeout: float = 2.0,
        max_health_failures: int = 2,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        on_worker_up=None,
        on_worker_down=None,
    ):
        if count < 1:
            raise ValueError("worker count must be >= 1")
        self.store = store
        self.concurrency = concurrency
        self.default_deadline = default_deadline
        self.max_accepted = max_accepted
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.max_health_failures = max_health_failures
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.on_worker_up = on_worker_up
        self.on_worker_down = on_worker_down
        self.workers = [
            WorkerHandle(i, os.path.join(socket_dir, f"worker-{i}.sock"))
            for i in range(count)
        ]
        self._manage_tasks: "list[asyncio.Task]" = []
        self._stopping = False

    # -- spawning -------------------------------------------------------
    def _argv(self, handle: WorkerHandle) -> "list[str]":
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", handle.socket_path,
            "--concurrency", str(self.concurrency),
        ]
        if self.store is not None:
            argv += ["--store", str(self.store)]
        if self.default_deadline is not None:
            argv += ["--deadline", str(self.default_deadline)]
        if self.max_accepted is not None:
            argv += ["--max-accepted", str(self.max_accepted)]
        return argv

    def _env(self) -> dict:
        """The worker environment; makes a source-tree ``repro`` import
        work even when the package is not installed."""
        import repro

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        return env

    def _spawn(self, handle: WorkerHandle) -> None:
        try:
            os.unlink(handle.socket_path)
        except OSError:
            pass
        handle.proc = subprocess.Popen(
            self._argv(handle),
            stdout=subprocess.DEVNULL,  # the per-worker banner is noise
            env=self._env(),
            start_new_session=True,  # terminal SIGINT stays on the front-end
        )
        handle.state = "starting"
        handle.health_failures = 0
        handle.up_since = None

    async def _wait_ready(self, handle: WorkerHandle) -> bool:
        """Poll until the worker answers its readiness ping (True) or
        dies / exceeds ``_SPAWN_TIMEOUT`` (False)."""
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if not handle.alive():
                return False
            if os.path.exists(handle.socket_path):
                try:
                    answer = await unix_rpc(
                        handle.socket_path, {"op": "metrics"},
                        self.health_timeout,
                    )
                    if answer.get("ok"):
                        handle.last_metrics = answer.get("result")
                        return True
                except (asyncio.TimeoutError, ServiceError, OSError):
                    pass
            await asyncio.sleep(0.05)
        return False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker and wait until all answer their readiness
        ping; raises :class:`ServiceError` if any fails to come up."""
        for handle in self.workers:
            self._spawn(handle)
        ready = await asyncio.gather(
            *(self._wait_ready(h) for h in self.workers)
        )
        if not all(ready):
            await self.stop()
            dead = [h.index for h, ok in zip(self.workers, ready) if not ok]
            raise ServiceError(f"worker(s) {dead} failed to start")
        now = time.monotonic()
        for handle in self.workers:
            handle.state = "up"
            handle.up_since = now
            handle.backoff = self.backoff_base
            self._notify_up(handle)
        self._manage_tasks = [
            asyncio.ensure_future(self._manage(h)) for h in self.workers
        ]

    def note_failure(self, index: int) -> None:
        """Front-end hint: a request against this worker just failed at
        the transport level — health-check it immediately."""
        self.workers[index].poke.set()

    async def stop(self) -> None:
        """Terminate every worker: SIGTERM (graceful drain), bounded
        wait, SIGKILL stragglers."""
        self._stopping = True
        for task in self._manage_tasks:
            task.cancel()
        if self._manage_tasks:
            await asyncio.gather(*self._manage_tasks, return_exceptions=True)
        self._manage_tasks = []
        procs = [h.proc for h in self.workers if h.alive()]
        for proc in procs:
            proc.terminate()
        loop = asyncio.get_event_loop()
        deadline = time.monotonic() + 10.0
        for proc in procs:
            budget = max(0.1, deadline - time.monotonic())
            try:
                await loop.run_in_executor(None, proc.wait, budget)
            except subprocess.TimeoutExpired:
                proc.kill()
                await loop.run_in_executor(None, proc.wait)
        for handle in self.workers:
            handle.state = "stopped"
            try:
                os.unlink(handle.socket_path)
            except OSError:
                pass

    # -- the per-worker manage loop -------------------------------------
    async def _manage(self, handle: WorkerHandle) -> None:
        """Health-check one worker forever; kill-and-respawn on crash or
        wedge.  Cancellation (from :meth:`stop`) exits cleanly."""
        try:
            while not self._stopping:
                try:
                    await asyncio.wait_for(
                        handle.poke.wait(), self.health_interval
                    )
                except asyncio.TimeoutError:
                    pass
                handle.poke.clear()
                if self._stopping:
                    return
                if not handle.alive():
                    await self._respawn(handle, "crashed")
                    continue
                try:
                    answer = await unix_rpc(
                        handle.socket_path, {"op": "metrics"},
                        self.health_timeout,
                    )
                    if not answer.get("ok"):
                        raise ServiceError("health ping answered an error")
                except (asyncio.TimeoutError, ServiceError, OSError):
                    handle.health_failures += 1
                    if handle.health_failures >= self.max_health_failures:
                        await self._respawn(handle, "wedged")
                    continue
                handle.last_metrics = answer.get("result")
                handle.health_failures = 0
                if handle.state != "up":
                    handle.state = "up"
                    handle.up_since = time.monotonic()
                elif (
                    handle.up_since is not None
                    and time.monotonic() - handle.up_since > _STABLE_AFTER
                ):
                    handle.backoff = self.backoff_base  # earned a reset
                # always (re)notify: the front-end drops a shard from its
                # ring on any transport error, and this idempotent re-add
                # is how a false positive heals within one interval
                self._notify_up(handle)
        except asyncio.CancelledError:
            pass

    async def _respawn(self, handle: WorkerHandle, why: str) -> None:
        handle.state = "respawning"
        self._notify_down(handle)
        if handle.alive():
            handle.proc.kill()  # wedged: SIGTERM may never be served
            loop = asyncio.get_event_loop()
            await loop.run_in_executor(None, handle.proc.wait)
        delay = max(handle.backoff, self.backoff_base)
        handle.backoff = min(self.backoff_max, delay * 2)
        await asyncio.sleep(delay)
        if self._stopping:
            return
        handle.respawns += 1
        registry = get_registry()
        registry.counter("fleet.respawns").inc()
        registry.counter(f"fleet.worker.{handle.index}.respawns").inc()
        self._spawn(handle)
        if await self._wait_ready(handle):
            handle.state = "up"
            handle.up_since = time.monotonic()
            handle.health_failures = 0
            self._notify_up(handle)
        # on failure the next loop iteration sees a dead process and
        # respawns again, with the doubled backoff

    def _notify_up(self, handle: WorkerHandle) -> None:
        if self.on_worker_up is not None:
            self.on_worker_up(handle.index)

    def _notify_down(self, handle: WorkerHandle) -> None:
        if self.on_worker_down is not None:
            self.on_worker_down(handle.index)

    # -- introspection --------------------------------------------------
    @property
    def respawn_total(self) -> int:
        return sum(h.respawns for h in self.workers)

    def describe(self) -> "list[dict]":
        return [h.describe() for h in self.workers]
