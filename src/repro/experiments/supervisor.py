"""Supervised task execution for the experiment harness.

The process-pool fan-out of :mod:`repro.experiments.harness` (PR 1) is
fast but brittle: one hung worker (a pathological generated circuit),
one OOM-killed process (``BrokenProcessPool``) or one unpicklable
payload used to take the whole Table-I/III run down with a raw
traceback and zero partial results.  This module wraps every pool task
in a supervisor with three independent defenses:

**Per-task wall-clock budgets.**  Each task gets a timeout derived from
the circuit's exact logical path count (:func:`circuit_budgets`) or the
runner's flat :attr:`TaskRunner.task_timeout`.  A task over budget is
presumed hung: the pool is torn down (hung workers are killed, not
joined), and the task is retried in a fresh pool.

**Bounded retry with exponential backoff.**  Worker crashes
(``BrokenProcessPool``), pickling errors, timeouts and in-task
exceptions are retried up to ``max_retries`` times; each retry round
sleeps ``backoff_base * 2**round`` (capped) before respawning the pool.
Tasks that merely shared a pool with the faulty one are re-queued
*without* being charged an attempt.

**Graceful degradation.**  A task that exhausts its pool retries is
re-run once in-process (the deterministic ``jobs=1`` path).  Only if
that also fails is it recorded as a structured :class:`RowFailure` in
the result list — a run never aborts because of one bad row.

Fault injection for the chaos suite (``tests/chaos``) hangs off the
worker entrypoint: :attr:`TaskRunner.fault_hook` is called (with the
task label and attempt number) inside every *pool* worker before the
real task body, and never on the in-process degradation path — so a
hook that kills, hangs or raises exercises exactly the recovery
machinery.  Hooks must be picklable (module-level functions).

One :class:`TaskRunner` holds the whole policy (``jobs``,
``task_timeout``, ``max_retries``, ``fault_hook``); every fan-out entry
point of the library takes it as ``runner=`` (``None`` = an in-process
``TaskRunner()``), and the CLI builds one from ``--jobs``,
``--task-budget`` and ``--retries``.

Completed rows can be streamed to an append-only JSONL
:class:`Checkpoint`; :func:`resumable_map` re-runs with ``resume=True``
skip every row already on disk, making long sweeps restartable after a
SIGKILL with byte-identical final tables.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import TaskCrashed, TaskTimeout
from repro.obs import (
    get_registry,
    merge_observation,
    task_observation_begin,
    task_observation_collect,
)
from repro.paths.count import count_paths

#: default retry budget: a task may fail ``1 + DEFAULT_MAX_RETRIES``
#: times in the pool before it degrades to the in-process rerun.
DEFAULT_MAX_RETRIES = 2


def default_task_budget(
    total_logical: int,
    floor: float = 60.0,
    per_million: float = 120.0,
) -> float:
    """Wall-clock budget (seconds) for one circuit task.

    Derived from the circuit's exact logical path count — the one robust
    a-priori predictor of classification cost (Table II scales with it).
    Generous by design: the budget exists to catch *hangs*, not to race
    healthy tasks; a false timeout only costs a retry (the task result
    is unaffected thanks to in-process degradation).
    """
    return floor + per_million * (total_logical / 1_000_000.0)


def circuit_budgets(circuits: "Sequence") -> "list[float]":
    """:func:`default_task_budget` of each circuit, from its exact
    logical path count (a cheap DP — no enumeration)."""
    return [
        default_task_budget(count_paths(circuit).total_logical)
        for circuit in circuits
    ]


@dataclass(frozen=True)
class RowFailure:
    """Structured record of a task that failed after retry *and*
    in-process degradation.  Appears in result lists in place of the row
    so the rest of the run is preserved."""

    label: str
    kind: str  # "timeout" | "crashed" | "error"
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RowFailure":
        return cls(**data)

    def __str__(self) -> str:
        return (
            f"{self.label}: FAILED after {self.attempts} attempt(s) "
            f"[{self.kind}] {self.message}"
        )


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, TaskTimeout):
        return "timeout"
    if isinstance(exc, (TaskCrashed, BrokenProcessPool)):
        return "crashed"
    return "error"


@dataclass(frozen=True)
class SupervisorEvent:
    """One recovery action, for observability and the chaos tests.

    ``kind`` is one of ``timeout`` (budget exceeded, pool torn down),
    ``crashed`` (worker died), ``raised`` (task body raised in the
    pool), ``requeued`` (innocent victim of a pool teardown),
    ``degraded`` (retries exhausted, re-run in-process) or ``failed``
    (the in-process rerun failed too → :class:`RowFailure`).
    """

    kind: str
    label: str
    attempt: int


@dataclass
class _ObsResult:
    """A pool task's result bundled with its telemetry delta.

    Workers reset their process-local metrics/trace state per task, so
    the observation is exactly this task's work; the parent unwraps the
    result and folds the observation into its own registry and trace
    buffer (:meth:`TaskRunner._unwrap`).
    """

    result: object
    observation: dict


def _supervised_call(fn, payload, label, attempt, fault_hook):
    """Top-level pool-worker entrypoint (must be picklable).

    The fault hook fires *only* here — in pool workers — never on the
    in-process degradation path, so chaos tests can crash, hang or blow
    up workers while the supervised rerun stays clean.
    """
    if fault_hook is not None:
        fault_hook(label, attempt)
    task_observation_begin()
    result = fn(payload)
    return _ObsResult(result, task_observation_collect())


@dataclass
class TaskRunner:
    """Supervised, order-preserving ``map`` over a process pool.

    ``jobs=1`` (or a single task) runs everything in-process — the
    deterministic fallback; no pool, no timeouts, no fault hook.  With
    ``jobs > 1`` tasks fan out under the supervision policy described in
    the module docstring; ``task_timeout``, when set, is a flat per-task
    budget that overrides whatever budgets the caller derived.  Results
    always come back in input order and are bit-identical across job
    counts (every task is deterministic); only wall-clock and the
    recovery :attr:`events` differ.
    """

    jobs: int = 1
    max_retries: int = DEFAULT_MAX_RETRIES
    task_timeout: "float | None" = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    degrade_in_process: bool = True
    fault_hook: "Callable[[str, int], None] | None" = None
    events: "list[SupervisorEvent]" = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    # -- public API -----------------------------------------------------
    def map(
        self,
        fn: Callable,
        payloads: Sequence,
        labels: "Sequence[str] | None" = None,
        budgets: "Sequence[float | None] | None" = None,
        on_result: "Callable[[int, object], None] | None" = None,
    ) -> list:
        """Run ``fn`` over ``payloads``; return results in input order.

        ``labels`` name the tasks in events/failures (default
        ``task-<i>``); ``budgets`` are per-task wall-clock seconds
        (``None`` = wait forever; :attr:`task_timeout` replaces them
        when set), only enforced in pool mode;
        ``on_result`` fires once per task as soon as its final result
        (row or :class:`RowFailure`) is known — the checkpoint streaming
        hook.  Slots of failed tasks hold :class:`RowFailure`.
        """
        payloads = list(payloads)
        n = len(payloads)
        labels = list(labels) if labels is not None else [
            f"task-{i}" for i in range(n)
        ]
        if len(labels) != n:
            raise ValueError("labels must match payloads")
        if budgets is not None and len(budgets) != n:
            raise ValueError("budgets must match payloads")
        if self.task_timeout is not None:
            budgets = [self.task_timeout] * n
        if self.jobs <= 1 or n <= 1:
            results = []
            for i, payload in enumerate(payloads):
                result = self._run_in_process(fn, payload, labels[i], attempts=1)
                results.append(result)
                if on_result is not None:
                    on_result(i, result)
            return results
        return self._map_pool(fn, payloads, labels, budgets, on_result)

    # -- internals ------------------------------------------------------
    def _note(self, kind: str, label: str, attempt: int) -> None:
        self.events.append(SupervisorEvent(kind, label, attempt))
        get_registry().counter(f"supervisor.{kind}").inc()

    @staticmethod
    def _unwrap(value):
        """Unpack a pool task's :class:`_ObsResult`: merge the worker's
        telemetry into this (parent) process, return the bare result."""
        if isinstance(value, _ObsResult):
            merge_observation(value.observation)
            return value.result
        return value

    def _run_in_process(self, fn, payload, label, attempts: int):
        """The degradation path: one plain in-process call, exceptions
        captured into :class:`RowFailure` (``KeyboardInterrupt`` and
        friends still propagate)."""
        try:
            return fn(payload)
        except Exception as exc:  # noqa: BLE001 - the capture is the point
            self._note("failed", label, attempts)
            return RowFailure(
                label=label,
                kind=_failure_kind(exc),
                message=str(exc),
                attempts=attempts,
            )

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Tear down a pool that may contain hung workers.

        ``shutdown(wait=True)`` would block on the hang, so: stop new
        work, kill every worker process, then reap them.
        """
        pool.shutdown(wait=False, cancel_futures=True)
        # _processes is private but stable across 3.9-3.13; it becomes
        # None once the executor has shut down or broken
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for proc in processes:
            proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)

    def _map_pool(self, fn, payloads, labels, budgets, on_result):
        n = len(payloads)
        unset = object()
        results = [unset] * n
        attempts = [0] * n  # pool attempts charged so far
        pending = list(range(n))
        retry_round = 0

        def finish(i, result):
            results[i] = result
            if on_result is not None:
                on_result(i, result)

        while pending:
            # exhausted tasks leave the pool entirely
            still = []
            for i in pending:
                if attempts[i] <= self.max_retries:
                    still.append(i)
                elif self.degrade_in_process:
                    self._note("degraded", labels[i], attempts[i])
                    finish(
                        i,
                        self._run_in_process(
                            fn, payloads[i], labels[i], attempts[i] + 1
                        ),
                    )
                else:
                    self._note("failed", labels[i], attempts[i])
                    finish(
                        i,
                        RowFailure(
                            label=labels[i],
                            kind="error",
                            message="pool retries exhausted",
                            attempts=attempts[i],
                        ),
                    )
            pending = still
            if not pending:
                break
            if retry_round:
                time.sleep(
                    min(
                        self.backoff_cap,
                        self.backoff_base * (2 ** (retry_round - 1)),
                    )
                )

            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))
            )
            torn_down = False
            next_pending = []
            try:
                futures = {
                    i: pool.submit(
                        _supervised_call,
                        fn,
                        payloads[i],
                        labels[i],
                        attempts[i],
                        self.fault_hook,
                    )
                    for i in pending
                }
                for i in pending:
                    fut = futures[i]
                    if torn_down:
                        # the pool died under an earlier task: harvest
                        # whatever finished, requeue the rest uncharged
                        if not fut.done():
                            self._note("requeued", labels[i], attempts[i])
                            next_pending.append(i)
                            continue
                        try:
                            finish(i, self._unwrap(fut.result()))
                        except (BrokenProcessPool, CancelledError):
                            self._note("requeued", labels[i], attempts[i])
                            next_pending.append(i)
                        except Exception:  # noqa: BLE001
                            self._note("raised", labels[i], attempts[i])
                            attempts[i] += 1
                            next_pending.append(i)
                        continue
                    budget = budgets[i] if budgets is not None else None
                    try:
                        finish(i, self._unwrap(fut.result(timeout=budget)))
                    except _FutTimeout:
                        # presumed hung: the worker holds the task and
                        # will never return — kill the whole pool
                        self._note("timeout", labels[i], attempts[i])
                        attempts[i] += 1
                        next_pending.append(i)
                        self._terminate_pool(pool)
                        torn_down = True
                    except BrokenProcessPool:
                        self._note("crashed", labels[i], attempts[i])
                        attempts[i] += 1
                        next_pending.append(i)
                        self._terminate_pool(pool)
                        torn_down = True
                    except Exception:  # noqa: BLE001 - task raised in pool
                        self._note("raised", labels[i], attempts[i])
                        attempts[i] += 1
                        next_pending.append(i)
            except BaseException:
                # KeyboardInterrupt & co: never block on hung workers
                self._terminate_pool(pool)
                torn_down = True
                raise
            finally:
                if not torn_down:
                    try:
                        pool.shutdown(wait=True)
                    except Exception:  # noqa: BLE001 - already broken
                        self._terminate_pool(pool)
            pending = next_pending
            retry_round += 1
        return results


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


class Checkpoint:
    """Append-only JSONL record of completed experiment rows.

    One JSON object per line: ``{"kind": ..., "key": ..., "row": {...}}``.
    ``kind`` namespaces the producer (``table1``/``table3``/``sweep``)
    so a shared file cannot cross-contaminate; ``key`` identifies the
    row (circuit name, sweep parameter).  Every record is flushed and
    fsynced, so a SIGKILL loses at most the row being written — and
    :meth:`load` tolerates that torn tail line.  Floats survive the JSON
    round trip exactly (``repr``-based), which is what makes resumed
    tables byte-identical to straight-through runs.
    """

    def __init__(self, path: "str | Path", kind: str):
        self.path = Path(path)
        self.kind = kind

    def load(self) -> "dict[str, dict]":
        """All recorded rows of this checkpoint's kind, ``key → row``.

        Unparsable lines (a torn tail after a crash) and foreign kinds
        are skipped; later records win over earlier ones for the same
        key.
        """
        rows: dict[str, dict] = {}
        if not self.path.exists():
            return rows
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write — the row will be recomputed
            if (
                not isinstance(record, dict)
                or record.get("kind") != self.kind
                or "key" not in record
                or not isinstance(record.get("row"), dict)
            ):
                continue
            rows[str(record["key"])] = record["row"]
        return rows

    def record(self, key: str, row: dict) -> None:
        """Append one completed row durably (flush + fsync)."""
        get_registry().counter("checkpoint.records").inc()
        line = json.dumps(
            {"kind": self.kind, "key": str(key), "row": row}, sort_keys=True
        )
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def as_checkpoint(
    checkpoint: "str | Path | Checkpoint | None", kind: str
) -> "Checkpoint | None":
    """Normalize a harness ``checkpoint=`` argument (path or instance)."""
    if checkpoint is None or isinstance(checkpoint, Checkpoint):
        return checkpoint
    return Checkpoint(checkpoint, kind)


def resumable_map(
    runner: "TaskRunner | None",
    fn: Callable,
    items: Sequence,
    prepare: "Callable[[object], tuple[object, str, object]]",
    row_type: type,
    checkpoint: "Checkpoint | None" = None,
    resume: bool = False,
    key: "Callable[[object], str]" = str,
) -> list:
    """``runner.map(fn, …)`` over ``items`` with checkpoint streaming
    (``runner=None`` runs an in-process ``TaskRunner()``).

    ``prepare(item)`` returns ``(payload, label, circuit)`` — the circuit
    sizes the task's derived budget (:func:`circuit_budgets`, pool runs
    without a :attr:`TaskRunner.task_timeout` only).  Every completed
    ``row_type`` result is recorded in ``checkpoint`` under
    ``key(item)``; with ``resume=True`` items already recorded there are
    not even prepared.  Results come back in ``items`` order: a
    ``row_type`` instance, or a :class:`RowFailure` if the task failed
    even after retry and in-process degradation.  Keys must be unique.
    """
    if runner is None:
        runner = TaskRunner()
    items = list(items)
    done: dict = {}
    if checkpoint is not None and resume:
        done = {
            name: row_type.from_dict(data)
            for name, data in checkpoint.load().items()
        }
    pending = [item for item in items if key(item) not in done]
    todo = [key(item) for item in pending]
    work = [prepare(item) for item in pending]
    budgets = None
    if runner.jobs > 1 and len(work) > 1 and runner.task_timeout is None:
        budgets = circuit_budgets([circuit for _p, _l, circuit in work])

    def on_result(index: int, result) -> None:
        if checkpoint is not None and isinstance(result, row_type):
            checkpoint.record(todo[index], result.to_dict())

    fresh = runner.map(
        fn,
        [payload for payload, _l, _c in work],
        labels=[label for _p, label, _c in work],
        budgets=budgets,
        on_result=on_result,
    )
    done.update(zip(todo, fresh))
    return [done[key(item)] for item in items]
