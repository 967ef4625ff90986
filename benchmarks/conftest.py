"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper and
prints a paper-vs-measured comparison.  Output goes through :func:`emit`,
which bypasses pytest's capture (so the tables are visible in a plain
``pytest benchmarks/ --benchmark-only`` run) and is appended to
``benchmarks/results/<module>.txt`` for the record.

Set ``REPRO_BENCH_QUICK=1`` to restrict the circuit sets to the fast subset
(useful while iterating; the full run takes on the order of 15 minutes,
dominated by alu4 and the des rugged script -- the paper's own Table 2 had
the same hot spots).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

# Per-module record accumulators for the machine-readable emitter.
_JSON_ROWS: dict[str, list[dict]] = {}


def emit(module: str, text: str) -> None:
    """Print a line past pytest's capture and append it to the results file."""
    sys.__stderr__.write(text + "\n")
    sys.__stderr__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{module}.txt", "a", encoding="utf-8") as fh:
        fh.write(text + "\n")


def reset_results(module: str) -> None:
    """Truncate the results file of a module at the start of its run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{module}.txt").write_text("", encoding="utf-8")


def fmt(value, width: int = 7) -> str:
    """Right-aligned cell; '-' for None."""
    return f"{'-' if value is None else value:>{width}}"


def json_row(module: str, **fields: Any) -> None:
    """Queue one machine-readable record for ``BENCH_<module>.json``."""
    _JSON_ROWS.setdefault(module, []).append(fields)


def run_traced(fn):
    """Run ``fn`` under a fresh tracer; return ``(result, phases)``.

    ``phases`` maps slash-joined span paths (``synthesize/collapse``, ...)
    to seconds -- the same flattening the run-report CLI uses (see
    :func:`repro.observe.flatten_phases`).  Attach it to a :func:`json_row`
    so the ``BENCH_*.json`` artifacts carry per-phase breakdowns.
    """
    from repro import observe
    from repro.observe import Tracer, build_report, flatten_phases

    tracer = Tracer()
    with observe.tracing(tracer):
        result = fn()
    return result, flatten_phases(build_report(tracer))


def source_commit() -> str | None:
    """``git describe --always --dirty`` of the measured tree, if it is a
    git checkout (``-dirty``: uncommitted changes were measured)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def write_json(module: str, **meta: Any) -> None:
    """Write the queued records of a module as ``BENCH_<module>.json``.

    The JSON artifacts sit next to the human-readable ``.txt`` tables and
    are committed so the performance trajectory (wall-clock, node counts,
    cache hit rates) stays diffable across PRs.  Each names the commit it
    measured and the host's CPU count.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "module": module,
        "quick": QUICK,
        "generated": time.strftime("%Y-%m-%d %H:%M:%S"),
        "commit": source_commit(),
        "host_cpus": os.cpu_count(),
        **meta,
        "rows": _JSON_ROWS.pop(module, []),
    }
    path = RESULTS_DIR / f"BENCH_{module}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
