"""Machine-readable run reports and their schema.

A run report is the JSON serialization of a :class:`repro.observe.Tracer`
span tree plus run metadata.  The format is versioned
(``repro-run-report/5``) and validated by :func:`validate_report` -- a
dependency-free structural checker the CI smoke runs against every emitted
report (``python -m repro.observe out.json``).  Version 1 (no ``engine``
section), version 2 (no ``failures`` array), version 3 (no ``target``
section) and version 4 (no nested ``engine.remote`` object) reports are
still accepted by the validator.

Schema (all times in seconds, all counters numeric)::

    {
      "schema": "repro-run-report/5",
      "total_seconds": <float>,          # sum of top-level span times
      "meta": {<str>: <scalar>, ...},    # free-form run metadata
      "engine": {<str>: <scalar>, ...},  # optional: engine stats
      "target": {"name": <str>, ...},    # optional: technology-target stats
      "failures": [<failure>, ...],      # optional: task-failure events
      "spans": [<span>, ...]             # top-level spans in open order
    }
    <span> = {
      "name": <str>,
      "seconds": <float>,
      "calls": <int >= 1>,
      "counters": {<str>: <number>, ...},
      "children": [<span>, ...]
    }
    <failure> = {"kind": <str>, <str>: <scalar>, ...}

The ``engine`` section (new in version 2) is a flat object of scalars
describing the :mod:`repro.engine` run: the executor taken, worker count,
per-kind task counts, the queue-depth high-water mark, and -- new in
version 3 -- the reliability counters of the fault-tolerant executor
(retries, timeouts, degradations, injected faults; see
``docs/RELIABILITY.md``).  The ``failures`` array (new in version 3)
holds one structured record per failed task attempt, as collected by
:meth:`repro.observe.Tracer.failure`; each record carries at least a
``kind`` string (``timeout`` / ``worker-crash`` / ``fault`` / ...).
The ``target`` section (new in version 4, see ``docs/TARGETS.md``)
describes the technology target the run mapped for: a required
non-empty ``name``, scalar entries (``k``, cost totals, per-target
cache counters), and an optional ``race_winners`` object counting how
many raced groups each policy of a ``race:`` portfolio won.  Version 5
(see ``docs/DISTRIBUTED.md``) allows one nested object inside
``engine``: a ``remote`` entry of scalars (broker address, tasks
submitted/completed, lease expiries, shared-cache hits, broker errors)
that remote-executor runs attach; every other ``engine`` entry remains
a flat scalar.

:func:`format_tree` renders the same tree for humans (the CLI's
``--trace``).
"""

from __future__ import annotations

import json
from typing import Any

from repro.observe.tracer import Span, Tracer

SCHEMA_ID = "repro-run-report/5"
#: Previous schema versions, still accepted by :func:`validate_report`.
SCHEMA_ID_V4 = "repro-run-report/4"
SCHEMA_ID_V3 = "repro-run-report/3"
SCHEMA_ID_V2 = "repro-run-report/2"
SCHEMA_ID_V1 = "repro-run-report/1"


class ReportSchemaError(ValueError):
    """A payload does not conform to the run-report schema."""


def _span_payload(span: Span) -> dict[str, Any]:
    return {
        "name": span.name,
        "seconds": span.seconds,
        "calls": span.calls,
        "counters": dict(span.counters),
        "children": [_span_payload(c) for c in span.children.values()],
    }


def build_report(
    tracer: Tracer,
    meta: dict[str, Any] | None = None,
    engine: dict[str, Any] | None = None,
    target: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialize a tracer's span tree as a schema-conforming report.

    ``engine`` is the optional flat scalar object describing an engine
    run (``repro.engine``); pass e.g.
    ``FlowResult.engine_stats.as_dict()``.  ``target`` is the optional
    technology-target section (pass
    :func:`repro.targets.report_section`).  Task-failure events recorded
    on the tracer surface as the top-level ``failures`` array.
    """
    spans = [_span_payload(c) for c in tracer.root.children.values()]
    payload = {
        "schema": SCHEMA_ID,
        "total_seconds": sum(s["seconds"] for s in spans),
        "meta": dict(meta or {}),
        "spans": spans,
    }
    if engine is not None:
        payload["engine"] = dict(engine)
    if target is not None:
        payload["target"] = dict(target)
    if tracer.failures:
        payload["failures"] = [dict(f) for f in tracer.failures]
    return payload


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

_SCALAR = (str, int, float, bool, type(None))


def _fail(path: str, message: str) -> None:
    raise ReportSchemaError(f"{path}: {message}")


def _validate_span(span: Any, path: str) -> None:
    if not isinstance(span, dict):
        _fail(path, "span must be an object")
    required = {"name", "seconds", "calls", "counters", "children"}
    missing = required - span.keys()
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")
    extra = span.keys() - required
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}")
    if not isinstance(span["name"], str) or not span["name"]:
        _fail(path, "name must be a non-empty string")
    if not isinstance(span["seconds"], (int, float)) or isinstance(span["seconds"], bool):
        _fail(path, "seconds must be a number")
    if span["seconds"] < 0:
        _fail(path, "seconds must be non-negative")
    if not isinstance(span["calls"], int) or isinstance(span["calls"], bool) or span["calls"] < 1:
        _fail(path, "calls must be a positive integer")
    if not isinstance(span["counters"], dict):
        _fail(path, "counters must be an object")
    for key, value in span["counters"].items():
        if not isinstance(key, str):
            _fail(path, "counter names must be strings")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(path, f"counter {key!r} must be a number")
    if not isinstance(span["children"], list):
        _fail(path, "children must be an array")
    names = [c.get("name") if isinstance(c, dict) else None for c in span["children"]]
    if len(names) != len(set(names)):
        _fail(path, "sibling spans must have distinct names")
    for child in span["children"]:
        name = child.get("name", "?") if isinstance(child, dict) else "?"
        _validate_span(child, f"{path}/{name}")


def validate_report(payload: Any) -> dict[str, Any]:
    """Check a parsed report against the schema; return it on success.

    Raises :class:`ReportSchemaError` naming the offending path otherwise.
    """
    if not isinstance(payload, dict):
        _fail("$", "report must be an object")
    schema = payload.get("schema")
    known = (SCHEMA_ID, SCHEMA_ID_V4, SCHEMA_ID_V3, SCHEMA_ID_V2, SCHEMA_ID_V1)
    if schema not in known:
        _fail(
            "$.schema",
            f"expected one of {list(known)}, got {schema!r}",
        )
    required = {"schema", "total_seconds", "meta", "spans"}
    missing = required - payload.keys()
    if missing:
        _fail("$", f"missing keys {sorted(missing)}")
    if "engine" in payload:
        if schema == SCHEMA_ID_V1:
            _fail(
                "$.engine",
                "engine section requires schema repro-run-report/2 or newer",
            )
        if not isinstance(payload["engine"], dict):
            _fail("$.engine", "must be an object")
        for key, value in payload["engine"].items():
            if not isinstance(key, str):
                _fail("$.engine", "entry names must be strings")
            if key == "remote":
                if schema != SCHEMA_ID:
                    _fail(
                        "$.engine",
                        "nested remote object requires schema "
                        "repro-run-report/5",
                    )
                if not isinstance(value, dict):
                    _fail("$.engine", "remote must be an object")
                for rkey, rvalue in value.items():
                    if not isinstance(rkey, str) or not isinstance(
                        rvalue, _SCALAR
                    ):
                        _fail(
                            "$.engine",
                            f"remote entry {rkey!r} must map a string "
                            "to a scalar",
                        )
                continue
            if not isinstance(value, _SCALAR):
                _fail("$.engine", f"entry {key!r} must map a string to a scalar")
    if "target" in payload:
        if schema not in (SCHEMA_ID, SCHEMA_ID_V4):
            _fail(
                "$.target",
                "target section requires schema repro-run-report/4 or newer",
            )
        section = payload["target"]
        if not isinstance(section, dict):
            _fail("$.target", "must be an object")
        if not isinstance(section.get("name"), str) or not section["name"]:
            _fail("$.target", "needs a non-empty 'name' string")
        for key, value in section.items():
            if not isinstance(key, str):
                _fail("$.target", "entry names must be strings")
            if key == "race_winners":
                if not isinstance(value, dict):
                    _fail("$.target", "race_winners must be an object")
                for policy, wins in value.items():
                    if (
                        not isinstance(policy, str)
                        or not isinstance(wins, int)
                        or isinstance(wins, bool)
                        or wins < 0
                    ):
                        _fail(
                            "$.target",
                            f"race_winners entry {policy!r} must map a "
                            "string to a non-negative integer",
                        )
                continue
            if not isinstance(value, _SCALAR):
                _fail("$.target", f"entry {key!r} must map a string to a scalar")
    if "failures" in payload:
        if schema in (SCHEMA_ID_V1, SCHEMA_ID_V2):
            _fail(
                "$.failures",
                "failures array requires schema repro-run-report/3 or newer",
            )
        if not isinstance(payload["failures"], list):
            _fail("$.failures", "must be an array")
        for i, event in enumerate(payload["failures"]):
            path = f"$.failures/{i}"
            if not isinstance(event, dict):
                _fail(path, "failure event must be an object")
            if not isinstance(event.get("kind"), str) or not event["kind"]:
                _fail(path, "failure event needs a non-empty 'kind' string")
            for key, value in event.items():
                if not isinstance(key, str) or not isinstance(value, _SCALAR):
                    _fail(path, f"entry {key!r} must map a string to a scalar")
    total = payload["total_seconds"]
    if not isinstance(total, (int, float)) or isinstance(total, bool) or total < 0:
        _fail("$.total_seconds", "must be a non-negative number")
    if not isinstance(payload["meta"], dict):
        _fail("$.meta", "must be an object")
    for key, value in payload["meta"].items():
        if not isinstance(key, str) or not isinstance(value, _SCALAR):
            _fail("$.meta", f"entry {key!r} must map a string to a scalar")
    if not isinstance(payload["spans"], list):
        _fail("$.spans", "must be an array")
    for span in payload["spans"]:
        name = span.get("name", "?") if isinstance(span, dict) else "?"
        _validate_span(span, f"$.spans/{name}")
    return payload


# ----------------------------------------------------------------------
# human-readable rendering
# ----------------------------------------------------------------------

def _format_value(value: int | float) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _format_span(span: dict[str, Any], depth: int, lines: list[str]) -> None:
    indent = "  " * depth
    calls = f" x{span['calls']}" if span["calls"] > 1 else ""
    counters = "".join(
        f" {key}={_format_value(value)}" for key, value in sorted(span["counters"].items())
    )
    lines.append(f"{indent}{span['name']}: {span['seconds']:.3f}s{calls}{counters}")
    for child in span["children"]:
        _format_span(child, depth + 1, lines)


def format_tree(source: Tracer | dict[str, Any]) -> str:
    """Render a tracer or report payload as an indented span tree."""
    payload = build_report(source) if isinstance(source, Tracer) else source
    lines = [f"total: {payload['total_seconds']:.3f}s"]
    for span in payload["spans"]:
        _format_span(span, 1, lines)
    return "\n".join(lines)


def flatten_phases(payload: dict[str, Any]) -> dict[str, float]:
    """Per-phase seconds keyed by slash-joined span path (for BENCH rows)."""
    flat: dict[str, float] = {}

    def walk(span: dict[str, Any], prefix: str) -> None:
        path = f"{prefix}/{span['name']}" if prefix else span["name"]
        flat[path] = round(span["seconds"], 6)
        for child in span["children"]:
            walk(child, path)

    for span in payload["spans"]:
        walk(span, "")
    return flat


def main(argv: list[str] | None = None) -> int:
    """Validate report files given on the command line (CI smoke)."""
    import sys

    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.observe REPORT.json ...", file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                validate_report(json.load(fh))
        except (OSError, json.JSONDecodeError, ReportSchemaError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            return 1
        print(f"{path}: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke
    raise SystemExit(main())
