"""Wire schemas of the remote executor (``repro-remote-task/1`` et al).

Everything that crosses the broker is JSON, following the ``serve``
layer's conventions: a ``schema`` tag on every envelope, typed
validation that rejects unknown keys loudly, and round-trip helpers
kept next to the schema they implement.

Two envelopes exist:

- a **task** (``repro-remote-task/1``) carries one
  :class:`repro.engine.worker.GroupPayload` -- the group's functions as
  a :class:`repro.bdd.transfer.PortableDag`, the frontier signal names,
  the flow configuration, and an optional armed fault -- plus the lease
  the coordinator grants (``lease_seconds``) and the requeue budget;
- a **result** (``repro-remote-result/2``) carries the worker's
  :class:`repro.engine.worker.GroupResult` back (in the portable JSON
  form the result cache stores, with a raced group's winner), or a typed
  error.

The configuration travels with every task because workers are
stateless: any worker can serve any coordinator.  Transport-only knobs
(``jobs``, ``executor``, ``broker``, the cache path, the fault plan) are
forced to their worker-local values on arrival -- the same normalization
:func:`repro.engine.worker.run_group` applies -- so a worker-side
:func:`repro.engine.worker.config_digest` matches the coordinator's.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.bdd.transfer import PortableDag
from repro.engine.faults import FAULT_KINDS, FaultSpec
from repro.engine.worker import GroupPayload, result_from_json, result_to_json

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.worker import GroupResult
    from repro.mapping.flow import FlowConfig

#: Schema tag of task envelopes (broker-bound, coordinator -> worker).
TASK_SCHEMA = "repro-remote-task/1"

#: Schema tag of result envelopes (worker -> coordinator via broker).
#: Version 2 results carry a raced group's winning policy.  A version 1
#: worker would map a ``race:`` payload with its first candidate only,
#: so the broker refuses its results.
RESULT_SCHEMA = "repro-remote-result/2"

#: FlowConfig fields that never travel (coordinator-local runtime state).
_CONFIG_SKIP = frozenset({"fault_plan"})

#: Worker-local values forced onto an arriving configuration.  Mirrors
#: the normalization in :func:`repro.engine.worker.run_group`; all are
#: non-semantic (see ``worker._NON_SEMANTIC_FIELDS``), so the digest of
#: the rebuilt config equals the coordinator's.
_CONFIG_OVERRIDES = {
    "jobs": 1,
    "executor": "serial",
    "broker": None,
    "cache_db": None,
}


class RemoteWireError(ValueError):
    """A remote envelope failed validation (unknown schema, bad field)."""


def _require(body: dict, key: str, kinds, where: str):
    """One required, typed field of an envelope."""
    if key not in body:
        raise RemoteWireError(f"{where}: missing field {key!r}")
    value = body[key]
    if not isinstance(value, kinds):
        raise RemoteWireError(
            f"{where}: field {key!r} has type {type(value).__name__}"
        )
    return value


def _finite(body: dict, key: str, kinds, where: str):
    """One required numeric field, finite and >= 0.

    ``json.loads`` admits ``Infinity`` and ``NaN``, and ``True`` is an
    ``int``; all three are rejected.
    """
    value = _require(body, key, kinds, where)
    if isinstance(value, bool) or not math.isfinite(value) or value < 0:
        raise RemoteWireError(
            f"{where}: field {key!r} must be a finite number >= 0"
        )
    return value


# ----------------------------------------------------------------------
# FlowConfig <-> JSON
# ----------------------------------------------------------------------


def config_to_json(config: "FlowConfig") -> dict:
    """Serialize the flow configuration for a task envelope.

    Every dataclass field except the fault plan (armed faults travel on
    the payload itself, one concrete :class:`FaultSpec` per attempt) is
    a JSON scalar already.
    """
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in _CONFIG_SKIP
    }


def config_from_json(data: dict) -> "FlowConfig":
    """Rebuild a worker-local :class:`FlowConfig` from a task envelope.

    Unknown keys are rejected (a version-skewed coordinator must fail
    loudly, not silently drop a semantic knob); transport-only fields
    are overridden with their worker-local values.
    """
    from repro.mapping.flow import FlowConfig

    known = {f.name for f in fields(FlowConfig)} - _CONFIG_SKIP
    unknown = set(data) - known
    if unknown:
        raise RemoteWireError(
            f"task config: unknown field(s) {sorted(unknown)!r} "
            "(coordinator/worker version skew?)"
        )
    merged = dict(data)
    merged.update(_CONFIG_OVERRIDES)
    try:
        return FlowConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise RemoteWireError(f"task config: {exc}") from exc


# ----------------------------------------------------------------------
# FaultSpec / GroupPayload <-> JSON
# ----------------------------------------------------------------------


def fault_to_json(spec: FaultSpec | None) -> dict | None:
    """Serialize one armed fault (None passes through)."""
    if spec is None:
        return None
    return {
        "kind": spec.kind,
        "group": spec.group,
        "attempts": None if spec.attempts is None else list(spec.attempts),
        "seconds": spec.seconds,
    }


def fault_from_json(data: dict | None) -> FaultSpec | None:
    """Rebuild one armed fault from its wire form."""
    if data is None:
        return None
    kind = _require(data, "kind", str, "task fault")
    if kind not in FAULT_KINDS:
        raise RemoteWireError(f"task fault: unknown kind {kind!r}")
    attempts = data.get("attempts")
    return FaultSpec(
        kind=kind,
        group=int(_require(data, "group", int, "task fault")),
        attempts=None if attempts is None else tuple(attempts),
        seconds=float(data.get("seconds", 0.0)),
    )


def payload_to_json(payload: GroupPayload) -> dict:
    """Serialize one group subproblem for a task envelope."""
    dag = payload.dag
    return {
        "dag": {
            "var_names": list(dag.var_names),
            "nodes": [list(n) for n in dag.nodes],
            "roots": list(dag.roots),
        },
        # JSON object keys are strings; levels convert back on arrival.
        "level_signals": {
            str(lvl): sig for lvl, sig in payload.level_signals.items()
        },
        "config": config_to_json(payload.config),
        "fault": fault_to_json(payload.fault),
    }


def payload_from_json(data: dict) -> GroupPayload:
    """Rebuild one group subproblem from its wire form."""
    dag = _require(data, "dag", dict, "task payload")
    signals = _require(data, "level_signals", dict, "task payload")
    config = _require(data, "config", dict, "task payload")
    try:
        portable = PortableDag(
            var_names=tuple(dag["var_names"]),
            nodes=tuple(tuple(n) for n in dag["nodes"]),
            roots=tuple(dag["roots"]),
        )
        level_signals = {int(lvl): str(sig) for lvl, sig in signals.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteWireError(f"task payload: {exc}") from exc
    return GroupPayload(
        dag=portable,
        level_signals=level_signals,
        config=config_from_json(config),
        fault=fault_from_json(data.get("fault")),
    )


def strip_fault(task: dict) -> dict:
    """The task envelope with its armed fault removed (requeue semantics).

    A fault is armed for exactly one attempt; when a lease expires and
    the broker hands the task to another worker, re-performing the fault
    would kill that worker too and turn one injected death into a
    cascade.  The real-failure path is unaffected: a genuinely dead host
    never depends on the payload's fault field.
    """
    stripped = dict(task)
    payload = dict(stripped.get("payload") or {})
    payload["fault"] = None
    stripped["payload"] = payload
    return stripped


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------


def task_envelope(
    task_id: str,
    payload: GroupPayload,
    lease_seconds: float,
    max_requeues: int = 1,
) -> dict:
    """Build one ``repro-remote-task/1`` submission body."""
    return {
        "schema": TASK_SCHEMA,
        "id": task_id,
        "lease_seconds": float(lease_seconds),
        "max_requeues": int(max_requeues),
        "payload": payload_to_json(payload),
    }


def parse_task(body: dict) -> dict:
    """Validate one task envelope (broker- and worker-side admission).

    The payload is *not* deserialized -- the broker treats it opaquely
    and the worker deserializes lazily via :func:`payload_from_json` --
    but the envelope frame must be sound before it is queued: the lease
    is finite and positive (an infinite lease would let a dead worker
    hold its task for good), and the requeue budget is not negative.
    Unknown keys are ignored, so a coordinator that still sends the
    retired shared-cache field keeps working.
    """
    if not isinstance(body, dict):
        raise RemoteWireError("task envelope: not a JSON object")
    schema = body.get("schema")
    if schema != TASK_SCHEMA:
        raise RemoteWireError(
            f"task envelope: expected schema {TASK_SCHEMA!r}, got {schema!r}"
        )
    _require(body, "id", str, "task envelope")
    if not _finite(body, "lease_seconds", (int, float), "task envelope"):
        raise RemoteWireError("task envelope: field 'lease_seconds' must be > 0")
    _finite(body, "max_requeues", int, "task envelope")
    _require(body, "payload", dict, "task envelope")
    return body


def parse_poll(body: dict) -> tuple[str, float]:
    """Validate one worker poll body; returns ``(worker, wait)``.

    Both fields are optional (``"anonymous"``, no wait); ``wait`` is a
    finite number of seconds >= 0.
    """
    if not isinstance(body, dict):
        raise RemoteWireError("poll body: not a JSON object")
    worker = body.get("worker", "anonymous")
    if not isinstance(worker, str):
        raise RemoteWireError("poll body: field 'worker' must be a string")
    if "wait" not in body:
        return worker, 0.0
    return worker, float(_finite(body, "wait", (int, float), "poll body"))


def result_envelope(
    task_id: str,
    worker: str | None,
    ok: bool,
    result: "GroupResult | None" = None,
    error: dict | None = None,
) -> dict:
    """Build one ``repro-remote-result/1`` body (the ``result`` in the
    portable form of :func:`repro.engine.worker.result_to_json`)."""
    return {
        "schema": RESULT_SCHEMA,
        "id": task_id,
        "worker": worker,
        "ok": bool(ok),
        "result": None if result is None else result_to_json(result),
        "error": error,
    }


def parse_result(body: dict) -> dict:
    """Validate one result envelope (broker-side admission)."""
    if not isinstance(body, dict):
        raise RemoteWireError("result envelope: not a JSON object")
    schema = body.get("schema")
    if schema != RESULT_SCHEMA:
        raise RemoteWireError(
            f"result envelope: expected schema {RESULT_SCHEMA!r}, "
            f"got {schema!r}"
        )
    _require(body, "id", str, "result envelope")
    _require(body, "ok", bool, "result envelope")
    if body["ok"]:
        _require(body, "result", dict, "result envelope")
    else:
        _require(body, "error", dict, "result envelope")
    return body


def fault_error(exc: Exception) -> dict:
    """Typed wire form of a worker-side exception.

    :class:`repro.errors.FaultInjected` keeps its kind/group so the
    coordinator can rebuild the exact exception and count it under the
    existing ``fault`` failure kind rather than a generic error.
    """
    from repro.errors import FaultInjected

    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, FaultInjected):
        record["fault_kind"] = exc.kind
        record["fault_group"] = exc.group
    return record


def result_payload(body: dict) -> "GroupResult":
    """The deserialized :class:`GroupResult` of one ok result envelope."""
    return result_from_json(body["result"])


def rebuild_error(error: dict) -> Exception:
    """Coordinator-side reconstruction of a worker/broker error record.

    Injected faults come back as :class:`repro.errors.FaultInjected`
    (the retry ladder's ``fault`` kind); everything else -- including
    the broker's synthetic ``LeaseExpired`` for a presumed-dead host --
    becomes a :class:`repro.errors.RemoteTaskError`, which the ladder
    treats exactly like any worker exception: retry, then degrade.
    """
    from repro.errors import FaultInjected, RemoteTaskError

    kind = error.get("type", "RemoteTaskError")
    message = error.get("message", "remote task failed")
    if kind == "FaultInjected" and "fault_kind" in error:
        return FaultInjected(error["fault_kind"], int(error["fault_group"]))
    return RemoteTaskError(f"{kind}: {message}")
