"""``repro serve``: the long-lived HTTP synthesis daemon.

The package turns the one-shot synthesis flow into a service: submit
PLA/BLIF circuits over HTTP, poll for ``repro-run-report/5`` progress,
and fetch BLIF byte-identical to the CLI.  Concurrent requests multiplex
onto one shared process pool at group granularity; per-request budgets
map to HTTP 429/503; shutdown is a graceful drain, and a server
restarted on the same state dir resumes its interrupted jobs.  See
``docs/SERVING.md`` for the protocol and :mod:`repro.serve.app` for the
implementation layering.
"""

from repro.serve.app import ServerConfig, SynthesisServer
from repro.serve.jobs import (
    Job,
    JobQueue,
    JobRegistry,
    JobRunner,
    QueueFull,
    run_job,
)
from repro.serve.wire import (
    JOB_STATUSES,
    SCHEMA_ID,
    STATUS_HTTP,
    JobRequest,
    WireError,
    job_envelope,
    parse_submission,
)

__all__ = [
    "JOB_STATUSES",
    "Job",
    "JobQueue",
    "JobRegistry",
    "JobRequest",
    "JobRunner",
    "QueueFull",
    "SCHEMA_ID",
    "STATUS_HTTP",
    "ServerConfig",
    "SynthesisServer",
    "WireError",
    "job_envelope",
    "parse_submission",
    "run_job",
]
