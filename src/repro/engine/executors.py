"""The executors that map output groups, plus the Engine facade.

Every executor maps each output group on its own and re-imports the
results *sequentially in group order*; they differ only in where a group
runs.  :class:`ProcessExecutor` owns the one drain:

- :meth:`ProcessExecutor.submit_groups` exports each group as a portable
  subproblem (:class:`repro.engine.worker.GroupPayload`), replays it from
  the persistent result cache when it can, and otherwise creates one
  future per group through the ``_pool_submit`` seam.  A ``race:`` policy
  is raced inside that one task (:func:`repro.engine.worker.run_group`),
  so the drain never sees candidate policies.
- :meth:`ProcessExecutor.collect_groups` waits for each future in order
  with one retry ladder, merges the mapped sub-network into the parent
  network (renaming worker-local signals through its ``fresh_name``
  counter) and stores it in the result cache.

Three executors sit behind the seam:

- ``process`` submits to a process pool.  Each worker maps its group on
  a **private BDD manager** (:func:`repro.engine.worker.run_group`),
  replaying the serial emission order, so the merged network is
  identical to a serial run -- only wall-clock differs.
- ``serial`` (:class:`SerialExecutor`) returns an in-process future that
  runs ``run_group`` in the parent when the collect loop first asks for
  it.  A serial run that keeps no portable results (no result cache,
  race or fault plan) skips the export and merge: it maps every group
  directly on the engine's own context with :func:`drain_groups` -- the
  drain ``run_group`` performs -- so the BDD statistics and budgets see
  the decomposition.
- ``remote`` (:class:`repro.engine.remote.executor.RemoteExecutor`)
  submits to a task broker.

The drain is **fault-tolerant** (see ``docs/RELIABILITY.md``): a failed
group submission -- worker crash, exceeded ``FlowConfig.task_timeout``,
or any exception crossing the future -- is retried up to
``FlowConfig.task_retries`` times with exponential backoff, rebuilding the
pool after a crash; a group that keeps failing degrades: its own payload
runs in the parent, and its result merges at the group's position like
any other, so the network stays identical.  Every failure is recorded as
a structured record via :func:`repro.observe.failure` and counted in
:class:`repro.engine.tasks.EngineStats`.  With ``FlowConfig.cache_db``
set, every merged group is committed to the result cache before the next
one is collected, so an interrupted run resumes by running again with the
same cache: the finished groups replay, and the output is byte-identical.

The :class:`Engine` facade bundles context + policy + counters + executor
behind the two calls the flows need: ``run_groups`` and ``stats``.
"""

from __future__ import annotations

import atexit
import signal
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    InvalidStateError,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace as dc_replace
from typing import TYPE_CHECKING

from repro import observe
from repro.bdd.manager import BDD
from repro.bdd.transfer import export_dag
from repro.boolfunc.sop import Cube, Sop
# The cancel flag lives with the recursion that polls it; the CLI, the
# server and the batch layer reach it through this module.
from repro.engine.emitter import (  # noqa: F401 - request/reset re-exported
    EmitContext,
    VectorEmitter,
    cancel_requested,
    request_cancel,
    reset_cancel,
)
from repro.engine.faults import NO_FAULTS, ResolvedFaults, perform_fault
from repro.engine.policies import make_policy, parse_policy_spec
from repro.engine.tasks import EngineStats, TaskCounts
from repro.engine.worker import (
    GroupPayload,
    GroupResult,
    payload_fingerprint,
    run_group,
)
from repro.errors import (
    BudgetExceeded,
    FaultInjected,
    GroupFailedError,
    RunInterrupted,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (flow imports engine)
    from concurrent.futures import ProcessPoolExecutor

    from repro.mapping.flow import FlowConfig
    from repro.partitioning.kernel import BoundSetKernel

#: Base of the exponential retry backoff: the n-th retry of a group sleeps
#: ``RETRY_BACKOFF_SECONDS * 2**(n-1)`` seconds.
RETRY_BACKOFF_SECONDS = 0.05

#: Hard ceiling on one backoff sleep, whatever the retry count.
MAX_BACKOFF_SECONDS = 2.0

#: Seconds between cancel-event checks while waiting on a pool future.
CANCEL_POLL_SECONDS = 0.1


def drain_groups(
    emitter: VectorEmitter, groups: list[list[int]]
) -> list[list[str]]:
    """Map each group on ``emitter``'s context, in order.

    The one drain of the recursion: :func:`repro.engine.worker.run_group`
    runs it on a private manager, and :class:`SerialExecutor`'s direct
    drain on the engine's own context.
    """
    return [emitter.map_vector(f_nodes, {}) for f_nodes in groups]


@dataclass
class Submission:
    """Book-keeping of one in-flight group.

    Attributes:
        ordinal: submission ordinal (dispatch order, batch-wide).
        payload: the exported subproblem (resubmitted on retry, and run
            in the parent if the group degrades).
        fingerprint: identity of the payload, the result cache's key
            (None when no cache is open).
        future: the pending future (None for replayed groups).
        cached: result replayed from the result cache, if any.
        attempt: current retry attempt (0 = first submission).
        failures: structured records of every failed attempt so far.
    """

    ordinal: int
    payload: GroupPayload
    fingerprint: str | None = None
    future: object | None = None
    cached: GroupResult | None = None
    attempt: int = 0
    failures: list[dict] = field(default_factory=list)


class ProcessExecutor:
    """Fan independent groups out to worker processes, re-import in order."""

    name = "process"
    #: Whether submitted groups run outside this process (their task
    #: counts then fold in as ``tasks_offloaded``).
    offloads = True

    def __init__(self, jobs: int) -> None:
        """Use up to ``jobs`` worker processes; reliability counters start at zero."""
        self.workers = max(1, jobs)
        self._counts = {
            "tasks_retried": 0,
            "task_timeouts": 0,
            "worker_crashes": 0,
            "groups_degraded": 0,
            "faults_injected": 0,
        }

    def reliability(self) -> dict[str, int]:
        """Snapshot of the retry/timeout/degradation/fault counters."""
        return dict(self._counts)

    # ------------------------------------------------------------------
    # the drain
    # ------------------------------------------------------------------

    def run_groups(
        self, engine: "Engine", groups: list[list[int]]
    ) -> list[list[str]]:
        """Map every group, with retries, degradation and the result cache.

        A run that needs no portable results drains directly on the
        engine's context instead (see :meth:`_portable`).
        """
        if not self._portable(engine, groups):
            return drain_groups(engine.emitter, groups)
        config = engine.config
        faults = self._resolve_faults(config, len(groups))
        with observe.span("engine-dispatch"):
            subs = self.submit_groups(engine, groups, faults=faults)
        with observe.span("engine-collect"):
            return self.collect_groups(engine, subs, faults=faults)

    def _portable(self, engine: "Engine", groups: list[list[int]]) -> bool:
        """Whether the groups go through submit/collect as portable results.

        Offloading pays only with more than one group to overlap; see
        :meth:`keeps_results` for the runs that need portable results
        whatever the count.
        """
        return (self.offloads and len(groups) > 1) or self.keeps_results(engine)

    @staticmethod
    def keeps_results(engine: "Engine") -> bool:
        """Whether the run works on portable group results, however many.

        A result cache, a ``race:`` policy and a fault plan all do.
        """
        return (
            engine.racing
            or engine.group_cache is not None
            or engine.config.fault_plan is not None
        )

    @staticmethod
    def _resolve_faults(config: "FlowConfig", num_groups: int) -> ResolvedFaults:
        """Pin the configured fault plan (if any) to the group count."""
        if config.fault_plan is None:
            return NO_FAULTS
        return config.fault_plan.resolve(num_groups)

    def submit_groups(
        self,
        engine: "Engine",
        groups: list[list[int]],
        first_ordinal: int = 0,
        faults: ResolvedFaults = NO_FAULTS,
    ) -> list[Submission]:
        """Queue every group on the shared pool; returns submissions in order.

        Split from :meth:`collect_groups` so batch mode can enqueue the
        groups of *many* networks before collecting any of them
        (``first_ordinal`` offsets the batch-wide submission ordinals).
        Groups found in the persistent result cache, keyed by the payload
        fingerprint, are not submitted at all -- their stored result
        replays at collect time.
        """
        ctx = engine.context
        cache = engine.group_cache
        subs: list[Submission] = []
        for i, f_nodes in enumerate(groups):
            payload = self._payload(ctx, f_nodes)
            sub = Submission(first_ordinal + i, payload)
            if cache is not None:
                sub.fingerprint = payload_fingerprint(payload)
                with observe.span("cache-lookup"):
                    sub.cached = cache.lookup(ctx, f_nodes, sub.fingerprint)
            if sub.cached is None:
                sub.future = self._pool_submit(self._armed(sub, faults))
            subs.append(sub)
        return subs

    def _pool_submit(self, payload: GroupPayload):
        """Submit on the shared pool, rebuilding it once if it is broken.

        A killed worker is noticed asynchronously by the pool's management
        thread, so a pool that looked healthy when the last result was
        collected can be broken by the time the next run dispatches.  The
        future is made a :class:`_PoolFuture`, so cancelling it stays safe
        while the pool breaks.
        """
        try:
            future = _get_pool(self.workers).submit(run_group, payload)
        except BrokenExecutor:
            _reset_pool()
            future = _get_pool(self.workers).submit(run_group, payload)
        future.__class__ = _PoolFuture
        return future

    def collect_groups(
        self,
        engine: "Engine",
        subs: list[Submission],
        faults: ResolvedFaults = NO_FAULTS,
    ) -> list[list[str]]:
        """Re-import group results sequentially, in submission order.

        Failed submissions are retried (see :meth:`_await`), and a group
        that keeps failing degrades (see :meth:`_degrade`).  Each merged
        result is stored in the result cache at once, and a parent-side
        ``abort`` fault fires only after that, so a re-run with the same
        cache replays every group merged before the cut.
        """
        results: list[list[str]] = []
        try:
            for sub in subs:
                if cancel_requested():
                    raise RunInterrupted(
                        "process drain cancelled (signal or server drain)"
                    )
                if sub.cached is not None:
                    result, offloaded = sub.cached, False
                elif (result := self._await(engine, sub, faults)) is not None:
                    offloaded = self.offloads
                else:
                    result = self._degrade(sub, faults)
                    offloaded = False
                results.append(
                    merge_group_result(engine, result, offloaded=offloaded)
                )
                if engine.group_cache is not None and sub.cached is None:
                    with observe.span("cache-record"):
                        engine.group_cache.record(sub.fingerprint, result)
                abort = faults.abort_after(sub.ordinal)
                if abort is not None:
                    self._counts["faults_injected"] += 1
                    perform_fault(abort, in_worker=False)
        except RunInterrupted:
            # Outstanding futures must not keep pool workers (and the
            # interpreter's exit machinery) busy after the run is dead.
            self._cancel_outstanding(subs)
            raise
        return results

    @staticmethod
    def _cancel_outstanding(subs: list[Submission]) -> None:
        """Cancel every not-yet-collected future (cancelled drain)."""
        for sub in subs:
            if sub.future is not None:
                sub.future.cancel()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _await(
        self, engine: "Engine", sub: Submission, faults: ResolvedFaults
    ) -> GroupResult | None:
        """Wait for one submission, retrying failures with backoff.

        Returns the result, or None once the retry budget is spent.
        """
        config = engine.config
        while True:
            started = time.perf_counter()
            try:
                return self._wait_interruptible(sub.future, config.task_timeout)
            except (RunInterrupted, BudgetExceeded):
                # Not a task failure: the whole run is being torn down
                # (collect_groups cancels the other futures on the way
                # out).
                raise
            except FutureTimeoutError:
                kind = "timeout"
                error = f"group exceeded task_timeout={config.task_timeout:g}s"
                self._counts["task_timeouts"] += 1
            except BrokenExecutor as exc:
                kind = "worker-crash"
                error = str(exc) or type(exc).__name__
                self._counts["worker_crashes"] += 1
                _reset_pool()
            except FaultInjected as exc:
                kind = "fault"
                error = str(exc)
            except Exception as exc:  # noqa: BLE001 - any worker failure
                kind = "error"
                error = f"{type(exc).__name__}: {exc}"
            self._note_failure(sub, kind, error, started)
            sub.attempt += 1
            if sub.attempt > config.task_retries:
                return None
            self._counts["tasks_retried"] += 1
            observe.add("tasks_retried")
            time.sleep(
                min(
                    RETRY_BACKOFF_SECONDS * (2 ** (sub.attempt - 1)),
                    MAX_BACKOFF_SECONDS,
                )
            )
            sub.future = self._pool_submit(self._armed(sub, faults))

    @staticmethod
    def _wait_interruptible(future, timeout: float | None):
        """Wait on one pool future, polling the cancellation flag.

        ``concurrent.futures`` waits are not interruptible by another
        thread, so the wait is sliced into :data:`CANCEL_POLL_SECONDS`
        chunks: a requested cancel surfaces within one slice as
        :class:`RunInterrupted`, and ``timeout`` (the per-attempt
        ``FlowConfig.task_timeout``) still raises the pool's
        ``TimeoutError`` with unchanged semantics.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if cancel_requested():
                raise RunInterrupted(
                    "process drain cancelled (signal or server drain)"
                )
            wait = CANCEL_POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FutureTimeoutError()
                wait = min(wait, remaining)
            try:
                return future.result(timeout=wait)
            except FutureTimeoutError:
                continue  # poll slice elapsed; re-check cancel/deadline

    def _armed(self, sub: Submission, faults: ResolvedFaults) -> GroupPayload:
        """The submission's payload with the attempt's planned fault, if any."""
        fault = faults.fault_for(sub.ordinal, sub.attempt)
        if fault is None:
            return sub.payload
        self._counts["faults_injected"] += 1
        observe.add("faults_injected")
        return dc_replace(sub.payload, fault=fault)

    def _note_failure(
        self, sub: Submission, kind: str, error: str, started: float
    ) -> None:
        """Record one failed attempt (structured, for the run report)."""
        record = {
            "kind": kind,
            "group": sub.ordinal,
            "attempt": sub.attempt,
            "error": error,
            "seconds": round(time.perf_counter() - started, 6),
        }
        sub.failures.append(record)
        observe.failure(**record)

    def _degrade(self, sub: Submission, faults: ResolvedFaults) -> GroupResult:
        """Map a repeatedly failing group in the parent, from its payload.

        The payload runs through :class:`_InProcessFuture`, as under the
        serial executor, with the degraded attempt's planned fault armed.
        The caller merges the result at the group's position and stores
        it in the result cache, like any other, so the final network
        stays identical to a fault-free run.  Raises
        :class:`GroupFailedError` when the in-parent run fails too.
        """
        self._counts["groups_degraded"] += 1
        observe.add("groups_degraded")
        started = time.perf_counter()
        try:
            return _InProcessFuture(self._armed(sub, faults)).result()
        except (RunInterrupted, BudgetExceeded):
            raise  # run teardown, not a group failure
        except Exception as exc:
            self._note_failure(
                sub, "degraded", f"{type(exc).__name__}: {exc}", started
            )
            raise GroupFailedError(sub.ordinal, sub.failures) from exc

    @staticmethod
    def _payload(ctx: EmitContext, f_nodes: list[int]) -> GroupPayload:
        """Export one group as a picklable worker subproblem."""
        support = sorted(set().union(*(ctx.bdd.support(f) for f in f_nodes)))
        return GroupPayload(
            dag=export_dag(ctx.bdd, f_nodes),
            level_signals={
                lvl: ctx.signal_of_level[lvl] for lvl in support
            },
            config=ctx.config,
        )


class _PoolFuture(Future):
    """A pool future that a breaking pool may fail after it was cancelled.

    When a worker dies, CPython 3.11's ``ProcessPoolExecutor`` fails every
    work item its manager thread still holds, including the queued ones
    the drain cancelled (:meth:`ProcessExecutor._cancel_outstanding`).
    ``set_exception`` on a cancelled future raises ``InvalidStateError``,
    and the manager thread dies of it before failing the remaining futures
    or reaping its workers.  A cancelled future needs no failure, so this
    one ignores the error.
    """

    def set_exception(self, exception) -> None:
        """Fail the future, unless it was cancelled first."""
        try:
            super().set_exception(exception)
        except InvalidStateError:
            if not self.cancelled():
                raise


class _InProcessFuture:
    """One group mapped in the parent when the drain first asks for it.

    Speaks the ``concurrent.futures.Future`` subset the drain uses.  A
    planned fault fires in the parent, so ``kill`` raises
    :class:`FaultInjected` instead of exiting the coordinator.
    ``timeout`` cannot pre-empt a group running in the parent: the call
    returns only once the group is mapped.
    """

    def __init__(self, payload: GroupPayload) -> None:
        """Hold ``payload`` until the drain reads the result."""
        self._payload = payload
        self._outcome: tuple | None = None  # (result, error) once settled

    def result(self, timeout: float | None = None) -> GroupResult:
        """Map the group on first call; return or re-raise its outcome."""
        if self._outcome is None:
            try:
                perform_fault(self._payload.fault, in_worker=False)
                result = run_group(dc_replace(self._payload, fault=None))
                self._outcome = (result, None)
            except Exception as exc:  # noqa: BLE001 - stored like a pool future
                self._outcome = (None, exc)
        result, error = self._outcome
        if error is not None:
            raise error
        return result

    def cancel(self) -> bool:
        """Revoke the group; True only if it has not run yet."""
        if self._outcome is not None:
            return False
        self._outcome = (None, CancelledError())
        return True


class SerialExecutor(ProcessExecutor):
    """The process executor's drain with every group mapped in the parent.

    A run that keeps portable results (a result cache, a ``race:`` policy
    or a fault plan) goes through the inherited
    :meth:`submit_groups`/:meth:`collect_groups`, so it gets retries, the
    result cache and fault injection from the shared code; each group
    runs when the collect loop reaches it (:class:`_InProcessFuture`), so
    the cache is filled group by group.  Every other run maps each group
    directly on the engine's own context with :func:`drain_groups` -- the
    drain ``run_group`` performs, without the export and merge around it
    -- so the mapped network (LUT names included) is the same under every
    executor.
    """

    name = "serial"
    offloads = False

    def __init__(self) -> None:
        """One worker: the coordinator itself."""
        super().__init__(jobs=1)

    def _pool_submit(self, payload: GroupPayload) -> _InProcessFuture:
        """A lazy in-process future in place of a pool submission."""
        return _InProcessFuture(payload)


def merge_group_result(
    engine: "Engine", result: GroupResult, offloaded: bool
) -> list[str]:
    """Re-import one worker's mapped sub-network into the parent.

    Worker-local node names are renamed through the parent network's
    ``fresh_name`` counter in emission order, so the final names match a
    serial run; constants dedup through the shared constant cache.
    The group's step counts and recursion depth fold into the engine's
    counters, the counts as offloaded work when ``offloaded`` (the group
    ran in a pool or remote worker), and a raced group's winner into
    ``engine.race_winners`` -- whether the result came from a worker, the
    result cache or a degraded run.
    """
    ctx = engine.context
    rename: dict[str, str] = {}
    for spec in result.nodes:
        if spec.constant is not None:
            rename[spec.name] = ctx.constant_signal(spec.constant)
            continue
        prefix = spec.name.rstrip("0123456789")
        name = ctx.lut.fresh_name(prefix)
        fanins = [rename.get(f, f) for f in spec.fanins]
        cover = Sop(
            spec.num_vars,
            [Cube(spec.num_vars, care, value) for care, value in spec.cubes],
        )
        ctx.lut.add_node(name, fanins, cover)
        rename[spec.name] = name
        observe.add("shannon_splits" if prefix == "M" else "luts_emitted")
    ctx.records.extend(result.records)
    engine.counts.merge_counts(result.kind_counts, offloaded=offloaded)
    engine.counts.note_depth(result.depth)
    if result.policy is not None:
        winners = engine.race_winners
        winners[result.policy] = winners.get(result.policy, 0) + 1
    return [rename.get(sig, sig) for sig in result.outputs]


# Lazily created, process-wide engine pool (fork-cheap workers reused
# across groups and batch runs; rebuilt only when ``jobs`` changes or a
# worker crash breaks the pool).  The lock makes creation/teardown safe
# when several server threads drain concurrently on the shared pool.
_POOL: ProcessPoolExecutor | None = None
_POOL_JOBS = 0
_POOL_LOCK = threading.Lock()


def _init_worker() -> None:
    """Reset fork-inherited coordinator state in a fresh pool worker.

    Workers fork with the CLI/server's drain signal handlers and with a
    copy of the cancellation event.  Left in place, an inherited SIGTERM
    handler would swallow the ``terminate()`` of a forced shutdown (the
    worker prints "draining" and keeps running instead of dying), and a
    cancel flag that was set at fork time would make every task in the
    fresh worker die with :class:`RunInterrupted`.  SIGINT is ignored
    outright: a terminal Ctrl-C reaches the whole process group, and the
    drain is the coordinator's job alone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    reset_cancel()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The shared worker pool, (re)built for the requested width.

    The pool class is imported here, so a run that never builds a pool
    loads neither ``concurrent.futures.process`` nor ``multiprocessing``.
    """
    global _POOL, _POOL_JOBS
    from concurrent.futures import ProcessPoolExecutor

    with _POOL_LOCK:
        if _POOL is None or _POOL_JOBS != jobs:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker
            )
            _POOL_JOBS = jobs
        return _POOL


def _reset_pool() -> None:
    """Discard a broken pool so the next ``_get_pool`` builds a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=False)
            _POOL = None


def shutdown_pool(force: bool = False) -> None:
    """Shut the shared worker pool down (next use builds a fresh one).

    With ``force`` pending futures are cancelled and the worker processes
    are terminated outright -- an interrupted run must not leave orphaned
    workers grinding on cancelled groups, nor block interpreter exit on
    the pool's atexit join.  Without ``force`` the pool drains normally.
    """
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is None:
        return
    if not force:
        pool.shutdown(wait=True)
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # already dead / closed handle
            pass


# Drop the pool while every module is still intact: the pool module is
# imported after this one, so interpreter teardown clears it first, and a
# pool collected after that fails in its own weakref callback.
atexit.register(shutdown_pool)


def make_executor(config: "FlowConfig") -> ProcessExecutor:
    """Resolve ``FlowConfig.executor`` to an executor instance."""
    name = config.executor
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(config.jobs)
    if name == "remote":
        # Imported lazily: the remote transport is optional machinery
        # that serial/process runs should never pay for.
        from repro.engine.remote.executor import RemoteExecutor

        return RemoteExecutor(config)
    raise ValueError(
        f"unknown executor {name!r} (have: {sorted(EXECUTORS)})"
    )


#: Registry of executor names accepted by ``FlowConfig.executor``.
EXECUTORS = ("serial", "process", "remote")


class Engine:
    """Context + policy + counters + executor, bundled for the flows.

    One Engine maps one synthesis run: the collapsed flow creates one per
    network, the structural flow one per run (batches share it so records
    and counters accumulate).
    """

    def __init__(
        self,
        bdd: BDD,
        config: "FlowConfig",
        lut,
        signal_of_level: dict[int, str],
    ) -> None:
        """Assemble context, step counters, emitter, and executor for one run."""
        self.config = config
        self.context = EmitContext(bdd, config, lut, signal_of_level)
        self.counts = TaskCounts()
        self.emitter = VectorEmitter(
            self.context, make_policy(config), self.counts
        )
        self.executor = make_executor(config)
        self.racing = len(parse_policy_spec(config.policy)) > 1
        self.race_winners: dict[str, int] = {}
        self.group_cache = None
        if config.cache_db is not None:
            from repro.cache.group import GroupCache

            self.group_cache = GroupCache.open(config.cache_db, config)

    def run_groups(self, groups: list[list[int]]) -> list[list[str]]:
        """Map each group of BDD roots to its emitted output signals."""
        return self.executor.run_groups(self, groups)

    def partition_kernel(self) -> BoundSetKernel | None:
        """The bound-set kernel output partitioning should share, or None.

        A serial run that keeps no portable results decomposes every group
        with this engine's policy on this engine's manager, so the policy's
        kernel can serve ``partition_outputs`` too and answer the policy's
        repeat of a trial's search from memo.  Every other run decomposes
        the groups elsewhere (or from portable copies) and gets None.
        """
        if self.executor.offloads or self.executor.keeps_results(self):
            return None
        return getattr(self.emitter.policy, "kernel", None)

    def stats(self) -> EngineStats:
        """Report-ready counters for the run's ``engine`` section.

        Folds the executor's reliability counters (retries, timeouts,
        degradations, faults) and the result-cache counters into the
        step counts.
        """
        stats = self.counts.stats(self.executor.name, self.executor.workers)
        stats = dc_replace(stats, **self.executor.reliability())
        if self.group_cache is not None:
            stats = dc_replace(stats, **self.group_cache.counters())
        return stats
