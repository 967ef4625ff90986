#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the synthesis flow.

Run from the repository root:

    python3 perfbench/run.py --workload rugged-large --seed 1 --seconds 12 --trace 0

One closed-loop client (this process) maps every circuit of the workload
once per *pass*, repeating passes until ``--seconds`` of passes are measured
(at least three; a traced run makes at least two untraced and two traced
passes), checks every mapped netlist by simulation, and prints
every metric with its unit.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "circuit_s_geomean": "s",
    "cpu_s": "s",
    "clb_total": "CLBs",
    "lut_total": "LUTs",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


# ---------------------------------------------------------------------------
# process accounting
# ---------------------------------------------------------------------------


def _hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    found = re.search(r"VmHWM:\s+(\d+) kB", status)
    return int(found.group(1)) / 1024 if found else 0.0


def _reset_hwm() -> bool:
    """Restart this process's peak-RSS watermark (Linux ``clear_refs``)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def _peak_mb(watermark_reset: bool) -> float:
    """This process's peak RSS since the last reset (else its lifetime peak)."""
    if watermark_reset:
        return _hwm_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def stop_pool() -> float:
    """Shut the engine's worker pool down; return its workers' peak RSS in MB.

    Every batch pass starts the pool cold, as a CLI run does, and joining
    the workers makes their CPU time visible in ``RUSAGE_CHILDREN``.
    """
    from repro.engine import executors

    pool = executors._POOL
    peak = 0.0
    if pool is not None:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            peak = max(peak, _hwm_mb(proc.pid))
    executors.shutdown_pool()
    return peak


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class Row:
    """One circuit of one pass."""

    name: str
    seconds: float = 0.0
    clbs: int = 0
    luts: int = 0
    sha256: str = ""
    error: str = ""


@dataclass
class Pass:
    """Totals, per-circuit rows and (traced) per-layer metrics of one pass."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rows: list[Row]
    layers: dict = field(default_factory=dict)  # traced passes only


class Emit:
    """Pack and write one mapped netlist, timing both steps."""

    def __init__(self) -> None:
        from repro.io.blif import write_blif
        from repro.mapping.xc3000 import pack_xc3000

        self._pack, self._write = pack_xc3000, write_blif
        self.pack_s = 0.0
        self.write_s = 0.0

    def __call__(self, row: Row, result) -> None:
        start = time.perf_counter()
        row.clbs = self._pack(result.network).num_clbs
        mid = time.perf_counter()
        text = self._write(result.network)
        self.pack_s += mid - start
        self.write_s += time.perf_counter() - mid
        row.luts = result.num_luts
        row.sha256 = hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload, nets: list, config, checker, traced: bool) -> Pass:
    """Map every circuit once, in the given order, and check each netlist.

    Serial workloads time each circuit on its own, after an untimed
    ``gc.collect()`` and peak-RSS reset, so garbage and memory left by one
    circuit are not charged to the next; the pass wall is the sum.  The
    batch workload times its single ``synthesize_batch`` call, pool
    start-up included.  Checking is never timed.
    """
    from repro import observe
    from repro.engine.batch import synthesize_batch
    from repro.mapping.flow import synthesize
    from repro.mapping.structural import synthesize_structural

    import layers

    trace = layers.LayerTrace()
    program_tracers = []

    def program_trace():
        if not traced:
            return nullcontext()
        program_tracers.append(observe.Tracer())
        return observe.tracing(program_tracers[-1])

    emit = Emit()
    rows = [Row(name) for name, _ in nets]
    results = []
    cpu = peak = 0.0
    with trace.installed() if traced else nullcontext():
        if workload.entry == "batch":
            gc.collect()
            reset = _reset_hwm()
            cpu0, children0 = time.process_time(), _children_cpu()
            start = time.perf_counter()
            try:
                with program_trace():
                    outs = synthesize_batch([n for _, n in nets], config, fail_fast=False)
            except Exception as exc:  # the whole batch failed: every circuit did
                outs = [exc] * len(nets)
            for row, out in zip(rows, outs):
                try:
                    if isinstance(out, Exception):
                        raise out
                    emit(row, out)
                except Exception as exc:  # counted as a failure, pass goes on
                    row.error = f"{type(exc).__name__}: {exc}"
                # A batch hands every result back at once: a circuit's
                # latency runs from the call to its own netlist written.
                row.seconds = time.perf_counter() - start
            wall = time.perf_counter() - start
            peak = max(_peak_mb(reset), stop_pool())
            cpu = time.process_time() - cpu0 + _children_cpu() - children0
            results = [(row, out) for row, out in zip(rows, outs) if not row.error]
        else:
            synth = synthesize_structural if workload.entry == "structural" else synthesize
            for row, (_, net) in zip(rows, nets):
                gc.collect()
                reset = _reset_hwm()
                cpu0 = time.process_time()
                start = time.perf_counter()
                try:
                    with program_trace():
                        result = synth(net, config)
                    emit(row, result)
                except Exception as exc:  # counted as a failure, pass goes on
                    row.error = f"{type(exc).__name__}: {exc}"
                row.seconds = time.perf_counter() - start
                cpu += time.process_time() - cpu0
                peak = max(peak, _peak_mb(reset))
                if not row.error:
                    results.append((row, result))
            wall = sum(row.seconds for row in rows)
    for row, result in results:
        try:
            if not checker.check(row.name, row.sha256, result):
                row.error = "netlist differs from the source circuit"
        except Exception as exc:  # a malformed netlist fails, the run goes on
            row.error = f"check raised {type(exc).__name__}: {exc}"
    done = Pass(wall, cpu, peak, rows)
    if traced:
        counters: dict = defaultdict(float)
        for tracer in program_tracers:
            for name, value in layers.counter_totals(tracer).items():
                counters[name] += value
        done.layers = layers.layer_metrics(
            trace, counters, [r for _, r in results], wall, emit.pack_s, emit.write_s
        )
    return done


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_samples(workload_name: str, count: int) -> list[float]:
    """Seconds of fresh interpreters that import the program and load inputs."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload_name],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def host_facts() -> dict:
    """nproc, interpreter and numpy versions, and the checkout's commit."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _print_pass(label: str, done: Pass) -> None:
    print(f"# {label}: wall {done.wall_s:.3f} s, cpu {done.cpu_s:.3f} s, "
          f"peak {done.peak_rss_mb:.1f} MB")
    for row in done.rows:
        status = row.error or f"{row.clbs} CLBs {row.luts} LUTs sha256 {row.sha256}"
        print(f"#   {row.name:>8} {row.seconds:8.3f} s  {status}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, load the inputs, exit")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS, Checker, flow_config, load_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have: {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        load_inputs(workload)
        return 0

    import layers

    parse_start = time.perf_counter()
    inputs = load_inputs(workload)
    load_s = time.perf_counter() - parse_start
    config = flow_config(workload)
    checker = Checker(args.seed)
    rng = random.Random(args.seed)
    print(f"# workload {workload.name}: {', '.join(workload.circuits)}")
    print(f"# host {json.dumps(host_facts())}")

    plain: list[Pass] = []
    traced: list[Pass] = []
    attempted = failed = 0
    measured = 0.0
    # Traced runs alternate untraced and traced passes in ABBA order, so
    # drift in host speed cancels out of the overhead estimate.
    minimum = 2 if args.trace else MIN_PASSES
    while len(plain) < minimum or measured < args.seconds:
        if not args.trace:
            flags = (False,)
        else:
            flags = (False, True) if len(plain) % 2 == 0 else (True, False)
        for trace_it in flags:
            order = list(workload.circuits)
            rng.shuffle(order)
            nets = [(name, inputs[name].copy()) for name in order]
            done = run_pass(workload, nets, config, checker, trace_it)
            (traced if trace_it else plain).append(done)
            measured += done.wall_s
            attempted += len(done.rows)
            failed += sum(1 for row in done.rows if row.error)
            _print_pass(f"{'traced ' if trace_it else ''}pass {len(plain + traced)}",
                        done)

    if args.trace:
        units = layers.UNITS
        values = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in traced[0].layers
        }
        values["io.parse_blif_s"] = load_s if workload.entry == "structural" else 0.0
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            p.wall_s for p in plain
        )
        if workload.entry == "batch":
            print("# pool workers run untraced: "
                  + ", ".join(layers.WORKER_SIDE)
                  + " see the parent process only, not the work done in workers")
    else:
        units = END_TO_END

        def per_pass(fn):
            return statistics.median(fn(p) for p in plain)

        values = {
            "wall_s": per_pass(lambda p: p.wall_s),
            "circuit_s_geomean": per_pass(lambda p: _geomean([r.seconds for r in p.rows])),
            "cpu_s": per_pass(lambda p: p.cpu_s),
            "clb_total": per_pass(lambda p: sum(r.clbs for r in p.rows)),
            "lut_total": per_pass(lambda p: sum(r.luts for r in p.rows)),
            "ok_rate": (attempted - failed) / attempted,
            "peak_rss_mb": max(p.peak_rss_mb for p in plain),
            "setup_s": statistics.median(setup_samples(workload.name, SETUP_SAMPLES)),
        }
    for name, unit in units.items():
        print(f"# {name:<40} {values[name]:14.6f} {unit}")
    correct = failed == 0
    print(f"# correct: {correct} ({attempted - failed}/{attempted} circuits verified)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
