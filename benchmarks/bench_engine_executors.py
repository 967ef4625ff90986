"""Executor equivalence and wall-clock: serial vs process group drains.

The engine (``docs/ARCHITECTURE.md``) maps independent output groups
either in the parent (``--executor serial``) or by fanning them out to a
pool of worker processes (``--executor process``).  This module pins the
contract on real circuits and records the wall-clock of both executors:

- **identical output**: the process executor must produce a byte-identical
  BLIF (same LUTs, same names) and pass full BDD verification;
- **wall-clock**: the map phase is timed best-of-``REPS`` for each
  executor.  The process executor overlaps groups on several cores but
  pays for exporting, shipping and merging each one.  On the 2-vCPU host
  of ``BENCH_engine_executors.json`` that pays off only where a few
  groups of similar size overlap (misex2 1.35x, term1 1.06x, rot 1.02x);
  it loses on duke2 (0.93x), on e64's 17 small groups (0.57x) and on the
  four-circuit batch (0.86x).

Only the map phase is timed for the collapsed flow: for one network,
collapse and output partitioning run in the parent before any group is
mapped, under either executor, so end-to-end numbers would dilute the
executor difference with identical serial work.  The structural row (rot)
times the whole node-wise flow, batches included.  The batch row times the
whole ``synthesize_batch`` call: under the process executor the parent
partitions each network while the workers map the networks before it, so
that row also measures the overlap of partitioning with mapping.
"""

import os
import time

import pytest

from benchmarks.conftest import (
    QUICK,
    emit,
    json_row,
    reset_results,
    write_json,
)
from repro.algebraic.rugged import rugged
from repro.benchcircuits import get_circuit
from repro.engine.batch import synthesize_batch
from repro.engine.executors import _get_pool
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, prepare_synthesis, verify_flow
from repro.mapping.structural import synthesize_structural

MODULE = "engine_executors"

JOBS = 2
REPS = 3

QUICK_SET = ["duke2", "e64"]
FULL_SET = ["duke2", "e64", "term1", "misex2"]
CIRCUITS = QUICK_SET if QUICK else FULL_SET

BATCH_SET = ["rd53", "misex1", "f51m", "5xp1"]

_rows: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    _get_pool(JOBS)  # warm the worker pool outside any timed region
    emit(MODULE, "== Engine executors: serial vs process "
                 f"(jobs={JOBS}, best of {REPS}, host cpus={os.cpu_count()}) ==")
    emit(MODULE, f"{'net':>8} | {'flow':>10} {'grp':>4} {'luts':>5} | "
                 f"{'serial/s':>8} {'process/s':>9} {'speedup':>7}")
    yield
    if not _rows:
        return
    best = max(_rows, key=lambda r: r["speedup"])
    emit(MODULE, f"  best process-executor win: {best['name']} "
                 f"({best['speedup']:.2f}x)")
    write_json(
        MODULE,
        jobs=JOBS,
        reps=REPS,
        host_cpus=os.cpu_count(),
        best_speedup_circuit=best["name"],
        best_speedup=best["speedup"],
    )


def _row(name, flow, groups, luts, t_serial, t_process):
    speedup = round(t_serial / t_process, 3)
    _rows.append(dict(name=name, speedup=speedup))
    emit(MODULE, f"{name:>8} | {flow:>10} {groups:>4} {luts:>5} | "
                 f"{t_serial:>8.2f} {t_process:>9.2f} {speedup:>6.2f}x")
    json_row(
        MODULE,
        name=name,
        flow=flow,
        groups=groups,
        luts=luts,
        t_serial_s=round(t_serial, 3),
        t_process_s=round(t_process, 3),
        speedup=speedup,
    )


def _config(executor, mode="multi"):
    return FlowConfig(k=5, mode=mode, executor=executor, jobs=JOBS)


@pytest.mark.parametrize("name", CIRCUITS)
def test_collapsed_map_phase(name):
    """Collapsed flow: time run_groups only, pin identical verified output."""
    net = get_circuit(name).build()
    times: dict[str, float] = {}
    blifs: dict[str, str] = {}
    info: dict[str, int] = {}
    for executor in ("serial", "process"):
        best = None
        for _ in range(REPS):
            prep = prepare_synthesis(net.copy(), _config(executor))
            start = time.perf_counter()
            signals = prep.engine.run_groups(prep.group_nodes)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            result = prep.finish(signals)
        times[executor] = best
        blifs[executor] = write_blif(result.network)
        info["groups"] = len(prep.groups)
        info["luts"] = len(result.network.nodes)
        if executor == "process":
            assert result.engine_stats.tasks_offloaded > 0 or info["groups"] <= 1
            assert verify_flow(net, result)

    assert blifs["serial"] == blifs["process"]
    _row(name, "collapsed", info["groups"], info["luts"],
         times["serial"], times["process"])


@pytest.mark.skipif(QUICK, reason="structural row skipped in quick mode")
def test_structural_end_to_end():
    """Structural flow on rot: whole node-wise mapping, every batch shared."""
    name = "rot"
    original = get_circuit(name).build()
    pre = rugged(original.copy())
    times: dict[str, float] = {}
    blifs: dict[str, str] = {}
    luts = 0
    for executor in ("serial", "process"):
        best = None
        for _ in range(REPS):
            start = time.perf_counter()
            result = synthesize_structural(pre, _config(executor))
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        times[executor] = best
        blifs[executor] = write_blif(result.network)
        luts = len(result.network.nodes)

    assert blifs["serial"] == blifs["process"]
    _row(name, "structural", -1, luts, times["serial"], times["process"])


def test_batch_shared_queue():
    """Batch mode: groups of all networks on one queue, identical results."""
    nets = [get_circuit(n).build() for n in BATCH_SET]
    times: dict[str, float] = {}
    blifs: dict[str, list[str]] = {}
    luts = 0
    for executor in ("serial", "process"):
        best = None
        for _ in range(REPS):
            start = time.perf_counter()
            results = synthesize_batch(
                [n.copy() for n in nets], _config(executor)
            )
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        times[executor] = best
        blifs[executor] = [write_blif(r.network) for r in results]
        luts = sum(len(r.network.nodes) for r in results)

    assert blifs["serial"] == blifs["process"]
    _row("batch4", "batch", len(BATCH_SET), luts,
         times["serial"], times["process"])
