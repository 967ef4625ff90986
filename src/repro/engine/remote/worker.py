"""The remote worker loop behind ``repro worker``.

One worker is a pull loop against a broker: long-poll for a lease,
deserialize the :class:`repro.engine.worker.GroupPayload`, decompose it
on a **private BDD manager** -- literally
:func:`repro.engine.worker.run_group`, the same entry point the process
pool uses, which is what makes remote results byte-identical -- and
post the portable result back.

Workers keep no cache: the coordinator's own result cache
(``--cache-db``) answers repeated groups before they are ever
submitted, and verifies every hit.

Failure discipline: a worker exception -- a payload that fails to
deserialize included -- posts a typed error envelope (injected faults
keep their kind/group for coordinator-side reconstruction); a ``kill``
fault never reaches the post -- the process dies inside ``run_group``
exactly like a pool worker, and the broker's lease expiry is what
reports it.  Broker connection failures back off and retry up to a
budget, so workers survive broker restarts and can be started before
the broker binds.
"""

from __future__ import annotations

import os
import threading
import time

from repro.engine.remote.client import (
    BrokerClient,
    BrokerError,
    BrokerUnavailable,
)
from repro.engine.remote.wire import (
    fault_error,
    payload_from_json,
    result_envelope,
)
from repro.engine.worker import run_group

#: Long-poll window per /tasks/next call, seconds.
POLL_SECONDS = 2.0

#: Backoff between broker connection failures, seconds.
RETRY_BACKOFF = 0.5

#: Consecutive connection failures tolerated before giving up.
MAX_FAILURES = 60


def default_worker_name() -> str:
    """A stable-per-process worker name (``host:pid``)."""
    try:
        host = os.uname().nodename
    except (AttributeError, OSError):  # pragma: no cover - non-posix
        host = "worker"
    return f"{host}:{os.getpid()}"


def _handle_task(client: BrokerClient, task: dict, name: str) -> None:
    """Decompose one leased task and post its result envelope."""
    task_id = task.get("id", "?")
    try:
        # A kill fault never returns from run_group.
        result = run_group(payload_from_json(task["payload"]))
    except Exception as exc:  # noqa: BLE001 - every failure travels typed
        client.post_result(result_envelope(
            task_id, name, ok=False, error=fault_error(exc),
        ))
        return
    client.post_result(result_envelope(task_id, name, ok=True, result=result))


def run_worker(
    broker: str,
    name: str | None = None,
    stop: threading.Event | None = None,
    poll_seconds: float = POLL_SECONDS,
    idle_exit: float | None = None,
    max_failures: int = MAX_FAILURES,
) -> int:
    """Serve one broker until stopped; returns a process exit code.

    Exits 0 when ``stop`` is set (signal), the broker reports draining,
    or ``idle_exit`` seconds pass without work; exits 1 when the broker
    stays unreachable past ``max_failures`` consecutive attempts.
    """
    client = BrokerClient(broker)
    name = name or default_worker_name()
    stop = stop or threading.Event()
    failures = 0
    last_work = time.monotonic()
    while not stop.is_set():
        try:
            answer = client.next_task(name, wait=poll_seconds)
            failures = 0
        except (BrokerUnavailable, BrokerError):
            failures += 1
            if failures > max_failures:
                print(
                    f"repro worker: broker {broker} unreachable after "
                    f"{failures} attempts; giving up",
                    flush=True,
                )
                return 1
            stop.wait(RETRY_BACKOFF)
            continue
        if answer.get("draining"):
            print("repro worker: broker draining; exiting", flush=True)
            return 0
        task = answer.get("task")
        if task is None:
            if (
                idle_exit is not None
                and time.monotonic() - last_work > idle_exit
            ):
                print("repro worker: idle; exiting", flush=True)
                return 0
            continue
        try:
            _handle_task(client, task, name)
        except (BrokerUnavailable, BrokerError):
            # The result could not be posted; the lease will expire and
            # the broker requeues the task for somebody who can.
            failures += 1
        last_work = time.monotonic()
    return 0
