"""Chaos tests for the service fleet: real worker processes killed,
wedged and crashed mid-request, with the front-end's recovery contract
asserted from the client's side of the wire.

The contract under fire:

* a SIGKILLed worker mid-request yields a *transparent retry* on a
  surviving shard or a *structured error* — never a hang, never a
  dropped client connection;
* a SIGSTOPped (wedged) worker fails its health checks and is respawned
  by the supervisor, and routing to its shard resumes;
* answers produced through crashes and coalescing are byte-identical
  (modulo run-varying telemetry keys) to a clean single request.

All tests here are marked ``chaos``; CI runs them as a separate step.
"""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.errors import RemoteError, ServiceError
from repro.obs import get_registry
from repro.service import protocol
from repro.service.client import RetryPolicy, ServiceClient

from tests.service.fleet_harness import FleetHarness, stable_result

pytestmark = pytest.mark.chaos

#: big enough to keep a worker busy for a second or two, so a kill
#: reliably lands mid-request
SLOW_CIRCUIT = "s499-ecc"

#: (circuit, criterion) pairs the load threads cycle: small and medium
#: circuits, so the load is service overhead rather than one giant
#: classify, and distinct pairs, so coalescing does not flatter it
LOAD_WORKLOAD = (
    ("c17", "fs"),
    ("c17", "sigma"),
    ("misex-f", "fs"),
    ("z5xp-b", "fs"),
    ("bw-d", "sigma"),
    ("xcmp16", "fs"),
)


def _fast_harness(**overrides):
    """A fleet tuned for quick failure detection in tests."""
    kwargs = dict(
        workers=2,
        health_interval=0.2,
        health_timeout=1.0,
        max_health_failures=2,
        backoff_base=0.05,
        backoff_max=0.5,
    )
    kwargs.update(overrides)
    return FleetHarness(**kwargs)


def _classify_on_thread(address, outcomes, index, **fields):
    def run():
        with ServiceClient.connect(
            address, retry=RetryPolicy(base_delay=0.05)
        ) as client:
            try:
                outcomes[index] = client.classify(**fields)
            except (RemoteError, ServiceError) as exc:
                outcomes[index] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _wait_for_respawn(harness, baseline, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if harness.server.supervisor.respawn_total > baseline:
            return True
        time.sleep(0.1)
    return False


def _wait_all_up(harness, timeout=30.0):
    deadline = time.monotonic() + timeout
    workers = harness.server.supervisor.workers
    while time.monotonic() < deadline:
        if all(h.state == "up" for h in workers):
            return True
        time.sleep(0.1)
    return False


class TestKillMidRequest:
    def test_sigkill_yields_answer_or_structured_error_never_hang(
        self, tmp_path
    ):
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            # a clean reference answer first
            with ServiceClient.connect(harness.address) as client:
                clean = client.classify(circuit=SLOW_CIRCUIT)
            respawns_before = harness.server.supervisor.respawn_total

            home = clean["worker"]
            started = threading.Event()
            outcomes: list = [None]

            def on_event(event):
                started.set()

            thread = _classify_on_thread(
                harness.address, outcomes, 0,
                circuit=SLOW_CIRCUIT, on_event=on_event,
            )
            assert started.wait(60), "request never started on a worker"
            os.kill(harness.worker_pid(home), signal.SIGKILL)
            thread.join(120)
            assert not thread.is_alive(), "client hung after worker kill"

            outcome = outcomes[0]
            if isinstance(outcome, dict):
                # transparent retry on the surviving shard: the answer
                # must match the clean run exactly
                assert stable_result(outcome) == stable_result(clean)
            else:
                # or a structured error — a RemoteError from the wire,
                # never a raw disconnect surfacing as ServiceError
                assert isinstance(outcome, RemoteError), repr(outcome)

            assert _wait_for_respawn(harness, respawns_before)
            assert _wait_all_up(harness)

            # the respawned shard serves its old keys again
            with ServiceClient.connect(
                harness.address, retry=RetryPolicy()
            ) as client:
                after = client.classify(circuit=SLOW_CIRCUIT)
            assert after["worker"] == home
            assert stable_result(after) == stable_result(clean)
        finally:
            harness.stop()

    def test_respawn_counter_reaches_the_metrics_op(self, tmp_path):
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            before = get_registry().counter("fleet.respawns").value
            os.kill(harness.worker_pid(0), signal.SIGKILL)
            assert _wait_for_respawn(harness, 0)
            assert _wait_all_up(harness)
            with ServiceClient.connect(
                harness.address, retry=RetryPolicy()
            ) as client:
                snapshot = client.metrics()
                stats = client.stats()
            counters = snapshot["metrics"]["counters"]
            assert counters["fleet.respawns"] > before
            assert stats["respawns"] >= 1
        finally:
            harness.stop()


class TestKillUnderLoad:
    def test_sigkill_under_sustained_load_drops_nothing(self, tmp_path):
        """Four clients cycle the workload for ~5 s while one worker is
        SIGKILLed a third of the way in: every request ends in an answer
        or a ``RemoteError``, never a raw disconnect."""
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            respawns_before = harness.server.supervisor.respawn_total
            duration, threads = 5.0, 4
            stop_at = time.monotonic() + duration
            counts = {"ok": 0, "structured": 0}
            dropped: list = []
            lock = threading.Lock()

            def drive(index):
                with ServiceClient.connect(
                    harness.address, retry=RetryPolicy(base_delay=0.05)
                ) as client:
                    step = index  # stagger: threads cycle different pairs
                    while time.monotonic() < stop_at:
                        circuit, criterion = LOAD_WORKLOAD[
                            step % len(LOAD_WORKLOAD)
                        ]
                        step += threads
                        try:
                            client.classify(
                                circuit=circuit, criterion=criterion
                            )
                            outcome = "ok"
                        except RemoteError:
                            outcome = "structured"
                        except Exception as exc:  # a drop, whatever its type
                            with lock:
                                dropped.append(exc)
                            continue
                        with lock:
                            counts[outcome] += 1

            pool = [
                threading.Thread(target=drive, args=(i,))
                for i in range(threads)
            ]
            for thread in pool:
                thread.start()
            time.sleep(duration / 3)
            os.kill(harness.worker_pid(0), signal.SIGKILL)
            for thread in pool:
                thread.join(duration + 120)
            assert not any(t.is_alive() for t in pool), "a client hung"
            assert not dropped, (
                f"{len(dropped)} raw disconnect(s), first: {dropped[0]!r}"
            )
            assert counts["ok"] > 0, counts
            assert _wait_for_respawn(harness, respawns_before)
        finally:
            harness.stop()


class TestWedgedWorker:
    def test_sigstop_worker_is_respawned_by_health_checks(self, tmp_path):
        harness = _fast_harness(health_timeout=0.5)
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            pid = harness.worker_pid(1)
            respawns_before = harness.server.supervisor.respawn_total
            os.kill(pid, signal.SIGSTOP)
            try:
                # health checks must notice the wedge (no crash signal —
                # the process is alive but unresponsive) and respawn
                assert _wait_for_respawn(harness, respawns_before), (
                    "supervisor never respawned the wedged worker"
                )
            finally:
                # SIGKILL superseded the stop during respawn, but be
                # safe: never leak a stopped process from a failed test
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert _wait_all_up(harness)
            assert harness.worker_pid(1) != pid

            # the fleet answers on both shards afterwards
            with ServiceClient.connect(
                harness.address, retry=RetryPolicy()
            ) as client:
                result = client.classify(circuit="c17")
            assert result["total_logical"] == 22
        finally:
            harness.stop()


class TestCoalescingUnderFire:
    def test_coalesced_followers_share_the_leaders_fate(self, tmp_path):
        """Kill the worker while K identical requests are coalesced on
        it: every client gets the *same* outcome (all the retried
        answer, or all the same structured error), and nobody hangs."""
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            with ServiceClient.connect(harness.address) as client:
                clean = client.classify(circuit=SLOW_CIRCUIT)
            home = clean["worker"]

            count = 3
            started = threading.Event()
            outcomes: list = [None] * count
            threads = [
                _classify_on_thread(
                    harness.address, outcomes, i,
                    circuit=SLOW_CIRCUIT,
                    on_event=lambda event: started.set(),
                )
                for i in range(count)
            ]
            assert started.wait(60), "leader never reached a worker"
            os.kill(harness.worker_pid(home), signal.SIGKILL)
            for thread in threads:
                thread.join(120)
            assert not any(t.is_alive() for t in threads), (
                "a coalesced client hung after the worker kill"
            )
            assert all(o is not None for o in outcomes)
            answers = [o for o in outcomes if isinstance(o, dict)]
            errors = [o for o in outcomes if not isinstance(o, dict)]
            for answer in answers:
                assert stable_result(answer) == stable_result(clean)
            for error in errors:
                assert isinstance(error, RemoteError), repr(error)
            kinds = {type(o).__name__ for o in outcomes}
            assert len(kinds) == 1, f"divergent outcomes: {outcomes!r}"
        finally:
            harness.stop()

    def test_coalesced_answer_is_byte_identical_to_uncoalesced(
        self, tmp_path
    ):
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            with ServiceClient.connect(harness.address) as client:
                uncoalesced = client.classify(circuit=SLOW_CIRCUIT)

            count = 3
            barrier = threading.Barrier(count)
            outcomes: list = [None] * count

            def run(i):
                with ServiceClient.connect(harness.address) as client:
                    barrier.wait()
                    outcomes[i] = client.classify(circuit=SLOW_CIRCUIT)

            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(count)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            assert all(isinstance(o, dict) for o in outcomes)
            assert any(o["coalesced"] for o in outcomes)
            reference = stable_result(uncoalesced)
            for outcome in outcomes:
                assert stable_result(outcome) == reference
        finally:
            harness.stop()


class TestNonIdempotentOp:
    def test_a_crash_is_not_retried_when_the_spec_forbids_it(
        self, tmp_path, monkeypatch
    ):
        """The fleet's retry follows ``OpSpec.idempotent``: with the
        classify spec marked non-idempotent, a worker killed mid-request
        answers ``TaskCrashed`` after exactly one forward."""
        spec = protocol.OPS["classify"]
        monkeypatch.setitem(
            protocol.OPS, "classify",
            dataclasses.replace(spec, idempotent=False),
        )
        harness = _fast_harness()
        harness.start(str(tmp_path / "fleet.sock"))
        try:
            forwards: list = []
            forward = harness.server._forward

            async def counted(worker, *args):
                forwards.append(worker)
                return await forward(worker, *args)

            harness.server._forward = counted
            started = threading.Event()
            homes: list = []
            outcomes: list = [None]

            def on_event(event):
                homes.append(event["worker"])
                started.set()

            thread = _classify_on_thread(
                harness.address, outcomes, 0,
                circuit=SLOW_CIRCUIT, on_event=on_event,
            )
            assert started.wait(60), "request never started on a worker"
            os.kill(harness.worker_pid(homes[0]), signal.SIGKILL)
            thread.join(120)
            assert not thread.is_alive(), "client hung after worker kill"
            outcome = outcomes[0]
            assert isinstance(outcome, RemoteError), repr(outcome)
            assert outcome.error_type == "TaskCrashed"
            assert forwards == homes
        finally:
            harness.stop()
