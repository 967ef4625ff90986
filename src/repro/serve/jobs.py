"""Job lifecycle of the synthesis daemon: queue, runners, persistence.

A *job* is one synthesis request moving through the statuses of
:data:`repro.serve.wire.JOB_STATUSES`.  Submissions enter a **bounded
two-lane admission queue** (:class:`JobQueue`): the request's
``priority`` field picks the ``interactive`` or ``bulk`` lane, runners
always drain interactive jobs first, and both lanes share one backlog
bound -- a full queue rejects the request with :class:`QueueFull`
(HTTP 503) so overload fails fast instead of piling unbounded work onto
the process.  A fixed set of **runner
threads** drains the queue; every runner drives the ordinary library
flow (``parse -> rugged -> synthesize -> verify -> write_blif``) with
``executor="process"``, so concurrent requests multiplex onto the one
shared worker pool at group granularity -- exactly the batch dispatch
behaviour, and byte-identical to a one-shot CLI run of the same circuit.

Each job gets its own :class:`repro.observe.Tracer` (context-local, so
runner threads never share spans) with the request's soft budgets armed
on the ``synthesize`` span; a blown budget surfaces as the
``budget-exceeded`` status (HTTP 429), mirroring the CLI's exit code 3.

With a ``state_dir`` every job persists: the spec at admission and the
final envelope at completion, while the server's result cache (by
default ``state_dir/results.db``; see :class:`repro.serve.app.SynthesisServer`)
holds every group merged so far.  :meth:`JobRegistry.recover` re-enqueues
unfinished jobs at startup, so a drained-and-restarted server resumes
them -- replaying the finished groups from the cache -- to
byte-identical BLIF.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro import observe
from repro.algebraic.rugged import rugged
from repro.errors import BudgetExceeded, ReproError, RunInterrupted
from repro.io import parse_network
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.observe import Budget, Tracer, build_report
from repro.serve.wire import PRIORITIES, JobRequest, job_envelope
from repro.targets import report_section

#: Seconds a runner blocks on the queue before re-checking its stop flag.
RUNNER_POLL_SECONDS = 0.2

#: Job statuses that need no further work (envelope is final).
FINISHED_STATUSES = ("done", "failed", "budget-exceeded")


class QueueFull(Exception):
    """The bounded admission queue rejected a submission (HTTP 503)."""


@dataclass
class Job:
    """One synthesis request and everything it has produced so far.

    Attributes:
        id: opaque job identifier (hex, URL-safe).
        request: the validated submission.
        status: current lifecycle status (:data:`wire.JOB_STATUSES`).
        error: message of the failure/budget/interrupt, if any.
        blif: mapped netlist text (``done`` jobs only).
        report: final ``repro-run-report/5`` payload (finished jobs).
        tracer: the live tracer while the job runs (for progress
            snapshots); dropped once the final report is built.
    """

    id: str
    request: JobRequest
    status: str = "queued"
    error: str | None = None
    blif: str | None = None
    report: dict | None = None
    tracer: Tracer | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def envelope(self) -> tuple[dict, int]:
        """The job's current wire envelope: (JSON body, HTTP status)."""
        with self._lock:
            report = self.report
            if report is None and self.tracer is not None:
                report = self._snapshot_report()
            return job_envelope(
                self.id, self.status, report, self.blif, self.error
            )

    def _snapshot_report(self) -> dict | None:
        """Best-effort progress report while the job is mid-run.

        The tracer belongs to the runner thread; serializing it here
        races benignly with span updates, so any exception (e.g. a dict
        mutating during iteration) degrades to "no report yet" rather
        than failing the poll.
        """
        try:
            return build_report(
                self.tracer, meta={"circuit": self.request.name}
            )
        except Exception:  # noqa: BLE001 - racy snapshot is best-effort
            return None

    def transition(self, status: str, error: str | None = None) -> None:
        """Move the job to ``status`` (optionally recording an error)."""
        with self._lock:
            self.status = status
            if error is not None:
                self.error = error


class JobRegistry:
    """All jobs this server knows, plus their on-disk persistence.

    Thread-safe: the HTTP handler threads read envelopes while runner
    threads transition statuses.  With no ``state_dir`` the registry is
    memory-only and jobs die with the process.
    """

    def __init__(self, state_dir: str | None = None) -> None:
        """Create the registry, rooting persistence under ``state_dir``."""
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._state_dir = Path(state_dir) if state_dir else None
        if self._state_dir is not None:
            (self._state_dir / "jobs").mkdir(parents=True, exist_ok=True)

    def add(self, request: JobRequest) -> Job:
        """Register (and persist) a new queued job."""
        job = Job(id=uuid.uuid4().hex[:12], request=request)
        with self._lock:
            self._jobs[job.id] = job
        self.save(job)
        return job

    def get(self, job_id: str) -> Job | None:
        """The job with ``job_id``, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def all(self) -> list[Job]:
        """Every known job (insertion order)."""
        with self._lock:
            return list(self._jobs.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, job: Job) -> None:
        """Persist the job's spec and outcome (atomic rename)."""
        if self._state_dir is None:
            return
        path = self._state_dir / "jobs" / f"{job.id}.json"
        payload = {
            "id": job.id,
            "request": job.request.as_dict(),
            "status": job.status,
            "error": job.error,
            "blif": job.blif,
            "report": job.report,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload) + "\n")
        os.replace(tmp, path)

    def recover(self) -> list[Job]:
        """Reload persisted jobs; return the unfinished ones to re-enqueue.

        Finished jobs come back with their stored envelope (so clients
        can still poll them after a restart).  Queued, running, and
        interrupted jobs return to ``queued``: their next run replays the
        groups the result cache already holds, to byte-identical output.
        """
        if self._state_dir is None:
            return []
        pending: list[Job] = []
        for path in sorted((self._state_dir / "jobs").glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                request = JobRequest(**payload["request"])
                job = Job(id=payload["id"], request=request)
            except (ValueError, TypeError, KeyError):
                continue  # unreadable spec: skip, never crash startup
            if payload.get("status") in FINISHED_STATUSES:
                job.status = payload["status"]
                job.error = payload.get("error")
                job.blif = payload.get("blif")
                job.report = payload.get("report")
            else:
                pending.append(job)
            with self._lock:
                self._jobs[job.id] = job
        return pending


class JobQueue:
    """Bounded two-lane admission queue feeding the runner threads.

    The request's ``priority`` picks the lane (``interactive`` or
    ``bulk``); :meth:`next_job` always drains the interactive lane first,
    so short interactive synthesis requests are not stuck behind a wall
    of bulk work.  Both lanes share the one ``backlog`` bound -- the
    overload contract (reject with :class:`QueueFull`, HTTP 503) is
    unchanged from the single-lane queue.
    """

    def __init__(self, backlog: int) -> None:
        """Admit at most ``backlog`` queued jobs at a time (both lanes)."""
        self._backlog = max(1, backlog)
        self._lanes: dict[str, deque[Job]] = {
            lane: deque() for lane in PRIORITIES
        }
        self._not_empty = threading.Condition(threading.Lock())

    def _depth(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def submit(self, job: Job) -> None:
        """Enqueue ``job`` on its lane; :class:`QueueFull` over backlog."""
        lane = getattr(job.request, "priority", None)
        if lane not in self._lanes:
            lane = PRIORITIES[0]
        with self._not_empty:
            if self._depth() >= self._backlog:
                raise QueueFull(
                    "admission queue full (server overloaded; retry later)"
                )
            self._lanes[lane].append(job)
            self._not_empty.notify()

    def next_job(self) -> Job | None:
        """The next queued job (interactive lane first), or None after a
        short poll interval."""
        with self._not_empty:
            if self._depth() == 0:
                self._not_empty.wait(RUNNER_POLL_SECONDS)
            for lane in PRIORITIES:
                if self._lanes[lane]:
                    return self._lanes[lane].popleft()
            return None


def run_job(job: Job, registry: JobRegistry, execution: FlowConfig) -> None:
    """Execute one job to a terminal (or interrupted) status.

    Mirrors ``repro synth``: same flow calls, same span names, same
    budget semantics -- so the BLIF is byte-identical to the CLI and the
    report is the same ``repro-run-report/5`` document.  The job's
    :class:`FlowConfig` is ``execution`` (pool width, retries, result
    cache: the server's, none of which changes the output bytes) with
    the request's semantic knobs replaced onto it.  Every exit path
    (success, failure, blown budget, interrupt) persists the job, and a
    failed or blown run still carries a partial report with the
    ``failures`` array populated.
    """
    request = job.request
    budgets: dict[str, Budget] = {}
    if request.budget_seconds is not None or request.budget_nodes is not None:
        budgets["synthesize"] = Budget(
            seconds=request.budget_seconds, nodes=request.budget_nodes
        )
    tracer = Tracer(budgets=budgets)
    job.tracer = tracer
    job.transition("running")
    started = time.perf_counter()
    result = None
    ok = False
    config: FlowConfig | None = None
    error: ReproError | ValueError | None = None
    try:
        with observe.tracing(tracer):
            net = parse_network(
                request.circuit, name=request.name, fmt=request.fmt
            )
            reference = net.copy()
            if request.rugged:
                rugged(net)
            config = request.flow_config(execution)
            with observe.span("synthesize"):
                result = synthesize(net, config)
            with observe.span("verify"):
                ok = verify_flow(reference, result)
    except (ReproError, ValueError) as exc:
        error = exc
    elapsed = time.perf_counter() - started

    if error is not None:
        kind = "error"
        status = "failed"
        if isinstance(error, BudgetExceeded):
            kind, status = "budget", "budget-exceeded"
        elif isinstance(error, RunInterrupted):
            kind, status = "interrupted", "interrupted"
        tracer.failure(kind=kind, error=str(error))
    elif not ok:
        error = ReproError("mapped network is NOT equivalent to the input")
        tracer.failure(kind="error", error=str(error))
        status = "failed"
    else:
        status = "done"

    meta = {
        "circuit": request.name,
        "k": config.k if config is not None else request.k,
        "mode": request.mode,
        "rugged": request.rugged,
        "verified": ok and error is None,
        "wall_clock_seconds": elapsed,
    }
    if result is not None:
        meta["luts"] = result.num_luts
    if error is not None:
        meta["error"] = str(error)
    engine_dict = (
        result.engine_stats.as_dict() if result is not None else None
    )
    report = build_report(
        tracer,
        meta=meta,
        engine=engine_dict,
        target=(
            report_section(
                config.target,
                config.k,
                race_winners=(
                    result.race_winners if result is not None else None
                ),
            )
            if config is not None
            else None
        ),
    )
    with job._lock:
        job.report = report
        job.tracer = None
        if status == "done" and result is not None:
            job.blif = write_blif(result.network)
        job.status = status
        if error is not None:
            job.error = str(error)
    registry.save(job)


class JobRunner(threading.Thread):
    """One synthesis runner thread draining the admission queue."""

    def __init__(
        self,
        jobs: JobQueue,
        registry: JobRegistry,
        execution: FlowConfig,
        name: str = "repro-runner",
    ) -> None:
        """Create the runner (daemonic; start with ``.start()``)."""
        super().__init__(name=name, daemon=True)
        self._queue = jobs
        self._registry = registry
        self._execution = execution
        self._stop_event = threading.Event()

    def request_stop(self) -> None:
        """Ask the runner to exit after its current job."""
        self._stop_event.set()

    def run(self) -> None:
        """Drain jobs until stopped (never lets one job kill the thread)."""
        while not self._stop_event.is_set():
            job = self._queue.next_job()
            if job is None:
                continue
            try:
                run_job(job, self._registry, self._execution)
            except Exception as exc:  # noqa: BLE001 - runner must survive
                job.transition("failed", f"{type(exc).__name__}: {exc}")
                self._registry.save(job)
