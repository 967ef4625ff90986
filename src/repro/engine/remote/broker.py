"""The task broker: an HTTP task board between coordinators and workers.

``repro broker`` runs one of these per cluster.  Coordinators (the
:class:`repro.engine.remote.executor.RemoteExecutor`) POST task
envelopes; workers long-poll ``POST /tasks/next`` and are granted a
**lease** -- the task with an expiry stamped from the envelope's
``lease_seconds``.  A worker that posts its result before the expiry
completes the task; a worker that does not (crashed host, partitioned
network, hung decomposition) loses the lease and the task requeues for
the next worker, with its armed fault stripped (faults fire exactly
once -- see :func:`repro.engine.remote.wire.strip_fault`).  A task that
exhausts its requeue budget is failed broker-side with a synthetic
``LeaseExpired`` error, which the coordinator's retry ladder treats
like any worker death: retry, then degrade to serial.

Endpoints (all JSON; schemas in :mod:`repro.engine.remote.wire`):

- ``POST /tasks`` -- submit one task envelope; 503 while draining.
- ``POST /tasks/next`` -- worker poll (body: ``worker``, ``wait``;
  see :func:`repro.engine.remote.wire.parse_poll`); long-polls up to
  ``wait`` seconds; ``{"task": null}`` when idle, ``{"draining": true}``
  tells workers to exit.
- ``POST /results`` -- worker posts a result envelope; duplicate or
  unknown ids answer ``{"recorded": false}`` (the lease may have been
  reassigned -- last write loses, first write wins).
- ``GET /tasks/<id>`` -- coordinator poll: state, requeue count, and
  the result envelope once done.
- ``DELETE /tasks/<id>`` -- cancel/collect: removes the task outright.
- ``GET /healthz`` / ``GET /stats`` -- liveness and counters.

A malformed body or envelope answers 400.  The board is memory-only
and caches nothing: the coordinator deletes tasks as it collects them,
and its own ``--cache-db`` is the result cache and the resume state,
exactly as for the process executor.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.engine.remote.wire import (
    RemoteWireError,
    parse_poll,
    parse_result,
    parse_task,
    result_envelope,
    strip_fault,
)
from repro.httpjson import JsonHandler, JsonService

#: Ceiling on one long-poll wait; clients re-poll after this.
MAX_POLL_WAIT = 30.0

#: Lease-reap granularity while a long-poll waits.
_POLL_SLICE = 0.25


@dataclass(frozen=True)
class BrokerConfig:
    """Everything ``repro broker`` needs to run.

    Attributes:
        host: bind address.
        port: TCP port (0 picks a free one).
    """

    host: str = "127.0.0.1"
    port: int = 8378


@dataclass
class _Task:
    """Broker-side state of one task (the envelope plus lease bookkeeping)."""

    id: str
    envelope: dict
    state: str = "pending"  # pending | leased | done
    worker: str | None = None
    lease_expiry: float | None = None
    requeues: int = 0
    result: dict | None = None
    ever_leased: bool = False


@dataclass
class _Board:
    """The mutable task board (guarded by ``cond``'s lock)."""

    tasks: dict[str, _Task] = field(default_factory=dict)
    queue: deque = field(default_factory=deque)
    cond: threading.Condition = field(default_factory=threading.Condition)
    counters: dict = field(
        default_factory=lambda: {
            "tasks_submitted": 0,
            "tasks_completed": 0,
            "results_posted": 0,
            "results_ignored": 0,
            "leases_granted": 0,
            "lease_expiries": 0,
            "tasks_cancelled": 0,
        }
    )
    workers_seen: set = field(default_factory=set)


class _Handler(JsonHandler):
    """Request handler translating HTTP onto the task board."""

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """``POST /tasks``, ``POST /tasks/next``, ``POST /results``."""
        broker = self.service
        body = self.read_json()
        if body is None:
            return
        try:
            if self.route == "/tasks":
                if broker.draining:
                    self.send_json_error(503, "broker is draining; no new tasks")
                    return
                self.send_json(202, broker.submit(parse_task(body)))
            elif self.route == "/tasks/next":
                self.send_json(200, broker.next_task(*parse_poll(body)))
            elif self.route == "/results":
                self.send_json(200, broker.post_result(parse_result(body)))
            else:
                self.send_json_error(404, f"unknown endpoint {self.path!r}")
        except RemoteWireError as exc:
            self.send_json_error(400, str(exc))

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """``GET /tasks/<id>``, ``GET /healthz``, ``GET /stats``."""
        broker = self.service
        path = self.route
        if path == "/healthz":
            status = "draining" if broker.draining else "ok"
            self.send_json(503 if broker.draining else 200, {"status": status})
        elif path == "/stats":
            self.send_json(200, broker.stats())
        elif path.startswith("/tasks/"):
            self.send_json(200, broker.task_status(path[len("/tasks/"):]))
        else:
            self.send_json_error(404, f"unknown endpoint {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        """``DELETE /tasks/<id>``: cancel or collect-and-forget."""
        path = self.route
        if path.startswith("/tasks/"):
            self.send_json(200, self.service.cancel(path[len("/tasks/"):]))
        else:
            self.send_json_error(404, f"unknown endpoint {self.path!r}")


class TaskBroker(JsonService):
    """The long-lived task board behind ``repro broker``.

    Construct with a :class:`BrokerConfig`, then either call
    :meth:`serve_forever` (CLI: installs signal handlers, blocks until
    drained) or drive it in-process with :meth:`start` / :meth:`stop`
    (tests); the lifecycle is :class:`repro.httpjson.JsonService`'s.
    All board mutations happen under one condition variable; expired
    leases are reaped on every poll that observes the board, so no
    background reaper thread is needed.
    """

    name = "broker"
    handler = _Handler
    #: Largest accepted request body -- PortableDags of big circuits
    #: are much larger than serve's job submissions.
    max_body_bytes = 64 * 1024 * 1024

    def __init__(self, config: BrokerConfig) -> None:
        """Wire up the board (nothing binds yet)."""
        super().__init__(config.host, config.port)
        self.config = config
        self.board = _Board()

    # ------------------------------------------------------------------
    # board operations (each takes and releases the lock)
    # ------------------------------------------------------------------

    def submit(self, envelope: dict) -> dict:
        """Queue one validated task envelope; idempotent per task id."""
        board = self.board
        with board.cond:
            task_id = envelope["id"]
            if task_id in board.tasks:
                return {"accepted": False, "id": task_id,
                        "error": "duplicate task id"}
            board.tasks[task_id] = _Task(id=task_id, envelope=envelope)
            board.queue.append(task_id)
            board.counters["tasks_submitted"] += 1
            board.cond.notify()
            return {"accepted": True, "id": task_id}

    def next_task(self, worker: str, wait: float) -> dict:
        """Grant the next pending task to a polling worker (long-poll).

        Blocks up to ``wait`` seconds (clamped to :data:`MAX_POLL_WAIT`);
        reaps expired leases on every wake-up so requeued tasks are
        handed out promptly.
        """
        board = self.board
        deadline = time.monotonic() + min(wait, MAX_POLL_WAIT)
        with board.cond:
            board.workers_seen.add(worker)
            while True:
                self._reap_locked()
                if self.draining:
                    return {"task": None, "draining": True}
                if board.queue:
                    task = board.tasks[board.queue.popleft()]
                    task.state = "leased"
                    task.worker = worker
                    task.ever_leased = True
                    task.lease_expiry = (
                        time.monotonic() + task.envelope["lease_seconds"]
                    )
                    board.counters["leases_granted"] += 1
                    return {"task": task.envelope, "draining": False}
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"task": None, "draining": False}
                board.cond.wait(min(_POLL_SLICE, remaining))

    def post_result(self, envelope: dict) -> dict:
        """Record one worker result; first write wins, strays are ignored."""
        board = self.board
        with board.cond:
            task = board.tasks.get(envelope["id"])
            if task is None or task.state == "done":
                board.counters["results_ignored"] += 1
                return {"recorded": False}
            task.state = "done"
            task.result = envelope
            board.counters["results_posted"] += 1
            if envelope["ok"]:
                board.counters["tasks_completed"] += 1
            board.cond.notify_all()
            return {"recorded": True}

    def task_status(self, task_id: str) -> dict:
        """Coordinator-side poll of one task's state."""
        board = self.board
        with board.cond:
            self._reap_locked()
            task = board.tasks.get(task_id)
            if task is None:
                return {"id": task_id, "state": "unknown"}
            status = {
                "id": task_id,
                "state": task.state,
                "requeues": task.requeues,
                "worker": task.worker,
            }
            if task.result is not None:
                status.update(task.result)
            return status

    def cancel(self, task_id: str) -> dict:
        """Remove one task from the board (cancel or collect-and-forget).

        ``cancelled`` is True only when the task never ran anywhere --
        the ``Future.cancel`` contract the remote executor's futures
        relay (a requeued task has partially run on a now-dead host).
        """
        board = self.board
        with board.cond:
            task = board.tasks.pop(task_id, None)
            if task is None:
                return {"cancelled": False, "known": False}
            try:
                board.queue.remove(task_id)
            except ValueError:
                pass
            cancelled = task.state == "pending" and not task.ever_leased
            if cancelled:
                board.counters["tasks_cancelled"] += 1
            return {"cancelled": cancelled, "known": True}

    def stats(self) -> dict:
        """Counters plus a snapshot of the board's shape."""
        board = self.board
        with board.cond:
            self._reap_locked()
            states: dict[str, int] = {}
            for task in board.tasks.values():
                states[task.state] = states.get(task.state, 0) + 1
            return {
                "counters": dict(board.counters),
                "tasks": states,
                "workers": sorted(board.workers_seen),
                "draining": self.draining,
            }

    def _reap_locked(self) -> None:
        """Requeue or fail every task whose lease has expired (lock held)."""
        board = self.board
        now = time.monotonic()
        for task in board.tasks.values():
            if task.state != "leased" or task.lease_expiry is None:
                continue
            if now < task.lease_expiry:
                continue
            board.counters["lease_expiries"] += 1
            task.requeues += 1
            task.lease_expiry = None
            if task.requeues > task.envelope["max_requeues"]:
                task.state = "done"
                task.result = result_envelope(task.id, task.worker, ok=False, error={
                    "type": "LeaseExpired",
                    "message": (
                        f"lease expired {task.requeues} time(s); "
                        f"last worker {task.worker!r} presumed dead"
                    ),
                })
                board.cond.notify_all()
            else:
                task.envelope = strip_fault(task.envelope)
                task.state = "pending"
                task.worker = None
                # Requeue at the front: the coordinator has been waiting
                # on this group longest.
                board.queue.appendleft(task.id)
                board.cond.notify()

    def on_drain(self) -> None:
        """Wake every long-poll into a ``draining`` answer.

        New submissions already get 503; pending tasks are dropped --
        the coordinator's retry ladder and result cache own durability.
        """
        with self.board.cond:
            self.board.cond.notify_all()
