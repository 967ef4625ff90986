"""The ``remote`` executor: output groups fanned out across hosts.

:class:`RemoteExecutor` subclasses the process executor and overrides
exactly one seam -- future creation (``_pool_submit``) -- replacing pool
futures with broker-backed :class:`_RemoteFuture` objects that speak the
``concurrent.futures.Future`` subset the drain uses (``result(timeout)``
and ``cancel()``).  Everything above the seam is inherited verbatim:
the retry ladder with exponential backoff, per-attempt fault arming,
degrade-to-serial at the merge position, result-cache replay (which is
also how an interrupted run resumes), and the sequential in-order merge
that makes the mapped BLIF byte-identical to a serial run.  A raced
group travels as one task, and its lease bounds all its candidates
together.

Dead-host mapping: a worker that dies mid-group simply never posts its
result.  The broker's lease expires and requeues the task once (fault
stripped); a second expiry fails the task with a synthetic
``LeaseExpired`` error.  Both surface here exactly like the process
executor's ``kill@G`` fault family -- a timeout or an error on the
future -- so the inherited ladder retries and degrades with unchanged
semantics (see ``docs/DISTRIBUTED.md``).
"""

from __future__ import annotations

import math
import time
import uuid
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING

from repro import observe
from repro.engine.executors import ProcessExecutor
from repro.engine.remote.client import (
    BrokerClient,
    BrokerError,
    BrokerUnavailable,
)
from repro.engine.remote.wire import (
    rebuild_error,
    result_payload,
    task_envelope,
)
from repro.engine.worker import GroupPayload, GroupResult
from repro.errors import RemoteTaskError

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.executors import Engine
    from repro.mapping.flow import FlowConfig

#: Lease granted when no ``task_timeout`` is configured, seconds.
DEFAULT_LEASE_SECONDS = 60.0

#: How long the coordinator waits for the broker to answer /healthz.
CONNECT_WAIT_SECONDS = 10.0

#: Status-poll pause inside ``_RemoteFuture.result`` slices, seconds.
_STATUS_POLL_SECONDS = 0.1


class _FailedSubmission:
    """A future whose submission already failed (broker unreachable).

    Returning this instead of raising keeps submission failures on the
    same retry-then-degrade ladder as task failures: the drain calls
    ``result()``, the stored error re-raises, and the ladder decides.
    """

    def __init__(self, exc: Exception) -> None:
        """Remember the submission error to re-raise at ``result()``."""
        self._exc = exc

    def result(self, timeout: float | None = None):
        """Re-raise the submission error."""
        raise self._exc

    def cancel(self) -> bool:
        """Nothing to revoke -- the task never reached the broker."""
        return False


class _RemoteFuture:
    """A broker-backed task behind the ``Future`` subset the drain uses."""

    def __init__(self, executor: "RemoteExecutor", task_id: str) -> None:
        """Bind the broker-side ``task_id`` to the owning executor."""
        self.executor = executor
        self.task_id = task_id
        self._collected = False

    def result(self, timeout: float | None = None) -> GroupResult:
        """Poll the broker until the task is done or ``timeout`` elapses.

        Matches ``concurrent.futures.Future.result`` semantics: raises
        ``TimeoutError`` when the budget elapses with the task still
        pending/leased, re-raises the worker's (reconstructed) exception
        on failure.  The inherited ``_wait_interruptible`` slices calls
        into 0.1 s budgets, so cancellation stays responsive.
        """
        executor = self.executor
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            try:
                status = executor.client.task_status(self.task_id)
            except (BrokerUnavailable, BrokerError) as exc:
                executor.remote_counts["broker_errors"] += 1
                observe.add("remote_broker_errors")
                raise exc
            state = status.get("state")
            if state == "done":
                return self._consume(status)
            if state == "unknown":
                raise RemoteTaskError(
                    f"task {self.task_id} vanished from the broker "
                    "(restarted mid-run?)"
                )
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FutureTimeoutError()
                time.sleep(min(_STATUS_POLL_SECONDS, remaining))
            else:
                time.sleep(_STATUS_POLL_SECONDS)

    def _consume(self, status: dict) -> GroupResult:
        """Fold one terminal status into counters and a result/exception."""
        executor = self.executor
        if not self._collected:
            self._collected = True
            requeues = int(status.get("requeues", 0))
            if requeues:
                executor.remote_counts["lease_expiries"] += requeues
                observe.add("remote_lease_expiries", requeues)
            # Collected: the board entry has served its purpose.
            executor._forget(self.task_id)
        if status.get("ok"):
            executor.remote_counts["tasks_completed"] += 1
            observe.add("remote_tasks_completed")
            return result_payload(status)
        raise rebuild_error(status.get("error") or {})

    def cancel(self) -> bool:
        """Revoke the task; True only if it never ran (Future contract)."""
        try:
            answer = self.executor.client.cancel(self.task_id)
        except (BrokerUnavailable, BrokerError):
            return False
        return bool(answer.get("cancelled"))


class RemoteExecutor(ProcessExecutor):
    """Fan independent groups out to broker-attached remote workers."""

    name = "remote"

    def __init__(self, config: "FlowConfig") -> None:
        """Connect to ``config.broker``; reliability counters start at zero."""
        super().__init__(jobs=1)
        if config.broker is None:
            raise ValueError("executor 'remote' needs a broker address")
        # Worker processes live broker-side; the coordinator holds none.
        self.workers = 0
        self.broker = config.broker
        self.client = BrokerClient(config.broker)
        self._reachable = False  # /healthz answered (checked on first submit)
        self.remote_counts = {
            "tasks_submitted": 0,
            "tasks_completed": 0,
            "lease_expiries": 0,
            "broker_errors": 0,
        }

    def reliability(self) -> dict:
        """Base reliability counters plus the nested ``remote`` section."""
        counts = super().reliability()
        counts["remote"] = {"broker": self.broker, **self.remote_counts}
        return counts

    def _pool_submit(self, payload: GroupPayload):
        """Submit one group to the broker instead of the process pool.

        The first submission checks that the broker answers ``/healthz``
        and raises :class:`BrokerUnavailable` outright when it does not,
        so an unreachable broker fails the run fast instead of timing out
        once per group.  A run that submits nothing -- one group drained
        directly, or every group answered by the result cache -- never
        contacts the broker.

        The lease mirrors ``task_timeout`` (the default when it is unset
        or not finite -- the broker refuses an endless lease) so
        broker-side dead-host detection and the coordinator's
        per-attempt budget stay aligned; the requeue budget of 1 gives a
        surviving worker one chance to rescue the group within the same
        coordinator attempt.
        """
        if not self._reachable:
            if not self.client.wait_ready(CONNECT_WAIT_SECONDS):
                raise BrokerUnavailable(
                    f"broker {self.broker} did not answer /healthz within "
                    f"{CONNECT_WAIT_SECONDS:g}s"
                )
            self._reachable = True
        lease = payload.config.task_timeout
        if lease is None or not math.isfinite(lease):
            lease = DEFAULT_LEASE_SECONDS
        task_id = uuid.uuid4().hex[:16]
        try:
            self.client.submit_task(task_envelope(
                task_id, payload, lease_seconds=lease, max_requeues=1
            ))
        except (BrokerUnavailable, BrokerError) as exc:
            self.remote_counts["broker_errors"] += 1
            observe.add("remote_broker_errors")
            return _FailedSubmission(exc)
        self.remote_counts["tasks_submitted"] += 1
        observe.add("remote_tasks_submitted")
        return _RemoteFuture(self, task_id)

    def _wait_interruptible(self, future, timeout: float | None):
        """Inherited slicing, plus board cleanup on a final timeout.

        When the per-attempt budget truly elapses the drain abandons
        this future object forever and resubmits; revoking the broker
        task keeps an orphaned copy from occupying a worker that the
        retry needs.
        """
        try:
            return ProcessExecutor._wait_interruptible(future, timeout)
        except FutureTimeoutError:
            future.cancel()
            raise

    def _forget(self, task_id: str) -> None:
        """Drop one collected task from the board (best-effort cleanup)."""
        try:
            self.client.cancel(task_id)
        except (BrokerUnavailable, BrokerError):
            pass
