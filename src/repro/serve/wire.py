"""Wire schemas of the synthesis daemon: job submissions and envelopes.

One HTTP exchange speaks two schemas:

- the **submission** (``POST /jobs`` body) is a JSON object naming the
  circuit text and the flow knobs -- including the technology ``target``
  (``docs/TARGETS.md``), the decomposition ``policy`` (single or
  ``race:...`` portfolio) and the admission ``priority`` lane
  (``interactive`` | ``bulk``) -- :func:`parse_submission` validates it
  into a :class:`JobRequest`, rejecting anything malformed with a
  :class:`WireError` (HTTP 400);
- the **job envelope** (``GET /jobs/<id>`` body, schema
  ``repro-serve-job/1``) wraps the job's status, its mapped BLIF, and a
  ``repro-run-report/5`` run report -- the same machine-readable format
  the CLI writes with ``--report``, reused verbatim as the wire format
  (see ``docs/SERVING.md`` and ``docs/OBSERVABILITY.md``).

Job statuses map onto HTTP statuses through :data:`STATUS_HTTP`: a blown
per-request budget surfaces as 429 (the client asked for more than its
quota), an interrupted/draining job as 503 (retry after the restart), a
genuine synthesis failure as 500.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.mapping.flow import FlowConfig

#: Schema identifier stamped into every job envelope.
SCHEMA_ID = "repro-serve-job/1"

#: Every status a job can report, in rough lifecycle order.
JOB_STATUSES = (
    "queued",
    "running",
    "done",
    "failed",
    "budget-exceeded",
    "interrupted",
)

#: HTTP status returned by ``GET /jobs/<id>`` for each job status.
STATUS_HTTP = {
    "queued": 200,
    "running": 200,
    "done": 200,
    "failed": 500,
    "budget-exceeded": 429,
    "interrupted": 503,
}


class WireError(ValueError):
    """A request body does not conform to the submission schema (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One validated synthesis request (the parsed ``POST /jobs`` body).

    Attributes:
        circuit: PLA or BLIF source text.
        name: circuit name used when the source carries none (PLA).
        fmt: explicit format (``"pla"``/``"blif"``) or None to sniff.
        k: LUT input count (None: derived from ``target``, default 5).
        target: technology target name (``repro.targets`` registry;
            ``auto`` resolves against ``k``).
        policy: decomposition policy, single name or ``race:...``
            portfolio spec (:mod:`repro.engine.policies`).
        priority: admission lane, ``"interactive"`` (drained first) or
            ``"bulk"``; both lanes share the one backlog bound.
        mode: ``"multi"`` (IMODEC sharing) or ``"single"``.
        rugged: pre-structure with the rugged-style script first.
        strict: strict one-code-per-class decomposition baseline.
        budget_seconds: soft wall-clock budget of the synthesis phase.
        budget_nodes: soft budget on BDD nodes allocated during synthesis.
    """

    circuit: str
    name: str = "network"
    fmt: str | None = None
    k: int | None = None
    target: str = "auto"
    policy: str = "ladder-peel"
    priority: str = "interactive"
    mode: str = "multi"
    rugged: bool = False
    strict: bool = False
    budget_seconds: float | None = None
    budget_nodes: int | None = None

    def as_dict(self) -> dict:
        """JSON-ready form (persisted in the state dir, replayed on resume)."""
        return asdict(self)

    def flow_config(self, execution: FlowConfig | None = None) -> FlowConfig:
        """The request's semantic knobs on ``execution``, the server's
        execution config (default: a serial one-shot run).

        Raises ``ValueError`` on any knob the flow rejects.
        """
        return replace(
            execution or FlowConfig(),
            k=self.k,
            target=self.target,
            mode=self.mode,
            policy=self.policy,
            strict=self.strict,
        )


_FIELD_TYPES = {
    "circuit": str,
    "name": str,
    "fmt": (str, type(None)),
    "k": (int, type(None)),
    "target": str,
    "policy": str,
    "priority": str,
    "mode": str,
    "rugged": bool,
    "strict": bool,
    "budget_seconds": (int, float, type(None)),
    "budget_nodes": (int, type(None)),
}

#: Admission lanes, in drain order (interactive jobs preempt bulk ones).
PRIORITIES = ("interactive", "bulk")


def parse_submission(payload: object) -> JobRequest:
    """Validate one ``POST /jobs`` body into a :class:`JobRequest`.

    Raises :class:`WireError` (mapped to HTTP 400) on anything that is
    not an object with a non-empty ``circuit`` string and well-typed
    optional knobs, or whose knobs the flow rejects (checked by building
    the request's :class:`FlowConfig`); unknown keys are rejected so
    client typos fail loudly instead of silently running with defaults.
    """
    if not isinstance(payload, dict):
        raise WireError("submission must be a JSON object")
    unknown = payload.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise WireError(f"unknown submission keys: {sorted(unknown)}")
    for key, types in _FIELD_TYPES.items():
        if key in payload and (
            not isinstance(payload[key], types)
            or isinstance(payload[key], bool) != (types is bool)
        ):
            raise WireError(f"submission key {key!r} has the wrong type")
    circuit = payload.get("circuit")
    if not isinstance(circuit, str) or not circuit.strip():
        raise WireError("submission needs a non-empty 'circuit' string")
    request = JobRequest(**payload)
    if request.fmt not in (None, "pla", "blif"):
        raise WireError(f"unknown circuit format {request.fmt!r}")
    if request.priority not in PRIORITIES:
        raise WireError(
            f"unknown priority {request.priority!r} (have: {list(PRIORITIES)})"
        )
    try:
        request.flow_config()
    except ValueError as exc:
        raise WireError(str(exc)) from None
    return request


def job_envelope(
    job_id: str,
    status: str,
    report: dict | None = None,
    blif: str | None = None,
    error: str | None = None,
) -> tuple[dict, int]:
    """Build one ``GET /jobs/<id>`` response: (JSON body, HTTP status).

    ``report`` is a ``repro-run-report/5`` payload (partial while the job
    runs, final afterwards); ``blif`` is the mapped netlist, present only
    for ``done`` jobs and byte-identical to the one-shot CLI's output.
    """
    if status not in STATUS_HTTP:
        raise ValueError(f"unknown job status {status!r}")
    body = {
        "schema": SCHEMA_ID,
        "id": job_id,
        "status": status,
        "report": report,
        "blif": blif,
        "error": error,
    }
    return body, STATUS_HTTP[status]
