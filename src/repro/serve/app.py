"""The HTTP face of the synthesis daemon, on :mod:`repro.httpjson`.

Endpoints (all JSON; see ``docs/SERVING.md`` for the wire schemas):

- ``POST /jobs`` -- submit a circuit; 202 with the job id, 400 on a
  malformed body, 503 when the admission queue is full or the server is
  draining.  The optional ``priority`` field picks the admission lane
  (``interactive``, drained first, or ``bulk``); ``target`` and
  ``policy`` pick the technology target and decomposition policy (see
  ``docs/TARGETS.md``).
- ``GET /jobs/<id>`` -- poll one job; the body is the job envelope
  (``repro-serve-job/1`` wrapping a ``repro-run-report/5`` report) and
  the HTTP status mirrors the job status (429 budget-exceeded, 503
  interrupted, 500 failed, 404 unknown).
- ``GET /jobs`` -- list every known job id and status.
- ``GET /healthz`` -- 200 while serving, 503 while draining.

Shutdown is a **graceful drain** (SIGINT/SIGTERM or
:meth:`SynthesisServer.stop`): admission closes, the engine-wide cancel
flag is raised (:func:`repro.engine.executors.request_cancel` -- the same
hook the CLI's signal handlers use), runners stop their in-flight jobs
and exit, the shared result store and worker pool shut down, and the
listener stops.  Every group merged before the drain is already in the
result store.  A server restarted on the same ``--state-dir`` (whose
store is ``DIR/results.db`` unless ``--cache-db`` names another)
re-enqueues the interrupted jobs and replays their finished groups from
the store, to byte-identical BLIF.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.cache.store import close_store
from repro.engine import parse_fault_plan
from repro.engine.executors import request_cancel, reset_cancel, shutdown_pool
from repro.httpjson import JsonHandler, JsonService
from repro.mapping.flow import FlowConfig
from repro.serve.jobs import Job, JobQueue, JobRegistry, JobRunner, QueueFull
from repro.serve.wire import SCHEMA_ID, JobRequest, WireError, parse_submission


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` needs to run.

    Attributes:
        host: bind address.
        port: TCP port (0 picks a free one; see ``SynthesisServer.start``).
        jobs: worker processes shared by all requests.
        runners: concurrent synthesis runs.
        backlog: admission-queue bound (excess submissions get 503).
        state_dir: persistence root for job specs, and of the result
            cache (``results.db``) when ``cache_db`` is unset.
        cache_db: shared persistent result cache, if any.
        task_retries: per-group retry budget.
        fault_plan: fault-injection plan applied to every job (testing).
        broker: remote task-broker address; when set, jobs run under the
            remote executor and the daemon delegates decomposition to the
            broker's workers instead of its local pool (byte-identical
            output; see ``docs/DISTRIBUTED.md``).
    """

    host: str = "127.0.0.1"
    port: int = 8377
    jobs: int = 2
    runners: int = 2
    backlog: int = 16
    state_dir: str | None = None
    cache_db: str | None = None
    task_retries: int = 2
    fault_plan: str | None = None
    broker: str | None = None


class _Handler(JsonHandler):
    """Request handler translating HTTP onto the job registry/queue."""

    error_fields = {"schema": SCHEMA_ID}

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """``POST /jobs``: validate, admit, 202 with the job id."""
        app = self.service
        if self.route != "/jobs":
            self.send_json_error(404, f"unknown endpoint {self.path!r}")
            return
        if app.draining:
            self.send_json_error(
                503, "server is draining; resubmit after restart"
            )
            return
        payload = self.read_json()
        if payload is None:
            return
        try:
            job = app.admit(parse_submission(payload))
        except WireError as exc:
            self.send_json_error(400, str(exc))
        except QueueFull as exc:
            self.send_json_error(503, str(exc))
        else:
            self.send_json(
                202, {"schema": SCHEMA_ID, "id": job.id, "status": job.status}
            )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """``GET /jobs[/<id>]`` and ``GET /healthz``."""
        app = self.service
        path = self.route
        if path == "/healthz":
            if app.draining:
                self.send_json(503, {"status": "draining"})
            else:
                self.send_json(200, {"status": "ok"})
        elif path == "/jobs":
            jobs = [
                {"id": job.id, "status": job.status}
                for job in app.registry.all()
            ]
            self.send_json(200, {"schema": SCHEMA_ID, "jobs": jobs})
        elif path.startswith("/jobs/"):
            job = app.registry.get(path[len("/jobs/"):])
            if job is None:
                self.send_json_error(404, "unknown job id")
            else:
                body, status = job.envelope()
                self.send_json(status, body)
        else:
            self.send_json_error(404, f"unknown endpoint {self.path!r}")


class SynthesisServer(JsonService):
    """The long-lived synthesis daemon behind ``repro serve``.

    Construct with a :class:`ServerConfig`, then either call
    :meth:`serve_forever` (CLI: installs signal handlers, blocks until
    drained) or drive it in-process with :meth:`start` / :meth:`stop`
    (tests); the lifecycle is :class:`repro.httpjson.JsonService`'s.
    """

    name = "serve"
    handler = _Handler
    #: Largest accepted request body (rejects accidental uploads).
    max_body_bytes = 8 * 1024 * 1024

    def __init__(self, config: ServerConfig) -> None:
        """Wire up registry, queue, and runners (nothing starts yet).

        Raises ``ValueError`` on an execution knob ``repro synth`` would
        reject too, such as a malformed fault plan, before any state is
        created.
        """
        super().__init__(config.host, config.port)
        self.config = config
        #: The one result store every job reads and fills; with a state
        #: dir it is also what a restarted server resumes jobs from.
        self.cache_db = config.cache_db
        if self.cache_db is None and config.state_dir is not None:
            self.cache_db = os.path.join(config.state_dir, "results.db")
        #: Every job's execution knobs; each job replaces its request's
        #: semantic knobs onto it (:meth:`JobRequest.flow_config`).
        self.execution = FlowConfig(
            jobs=config.jobs,
            executor="remote" if config.broker else "process",
            broker=config.broker,
            task_retries=config.task_retries,
            fault_plan=(
                parse_fault_plan(config.fault_plan)
                if config.fault_plan
                else None
            ),
            cache_db=self.cache_db,
        )
        self.registry = JobRegistry(config.state_dir)
        self.queue = JobQueue(config.backlog)
        self._runners: list[JobRunner] = []

    def admit(self, request: JobRequest) -> Job:
        """Register and enqueue one submission (raises QueueFull)."""
        job = self.registry.add(request)
        try:
            self.queue.submit(job)
        except QueueFull:
            job.transition("failed", "rejected: admission queue full")
            self.registry.save(job)
            raise
        return job

    def on_start(self) -> None:
        """Re-enqueue unfinished persisted jobs, then start the runners."""
        reset_cancel()  # a fresh server must not inherit a stale cancel
        for job in self.registry.recover():
            self.queue.submit(job)
        for i in range(max(1, self.config.runners)):
            runner = JobRunner(
                self.queue,
                self.registry,
                self.execution,
                name=f"repro-runner-{i}",
            )
            runner.start()
            self._runners.append(runner)

    def on_drain(self) -> None:
        """Cancel in-flight runs, join the runners, then close the shared
        result store and the worker pool."""
        request_cancel()
        for runner in self._runners:
            runner.request_stop()
        for runner in self._runners:
            runner.join()
        if self.cache_db is not None:
            close_store(self.cache_db)
        shutdown_pool(force=True)
        reset_cancel()
