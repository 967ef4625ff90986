"""Command-line synthesis driver.

Usage::

    python -m repro.cli synth design.pla --mode multi --k 5 -o mapped.blif
    python -m repro.cli synth design.blif --rugged --structural --stats
    python -m repro.cli synth design.pla --executor process --jobs 4
    python -m repro.cli synth design.pla --report run.json --trace
    python -m repro.cli batch a.pla b.pla c.blif --executor process --jobs 4
    python -m repro.cli info design.blif

``synth`` reads a PLA or BLIF file, optionally pre-structures it with the
rugged-style script, maps it to k-input LUTs with multiple-output (IMODEC)
or single-output decomposition, verifies the result, reports the
technology target's cell counts (XC3000 CLBs by default) and optionally
writes the mapped netlist as BLIF.

``--target`` picks the technology target (``xc3000-clb``, ``lut-<k>``,
or ``auto``; see ``docs/TARGETS.md``) and ``--policy`` the decomposition
heuristic -- including a per-group portfolio race
(``race:ladder-peel,peel-first,...``) where every candidate policy maps
each output group and the cheapest result under the target wins
deterministically.

``batch`` maps many circuits in one invocation through one shared work
queue: with ``--executor process`` the decomposition groups of *all*
circuits fan out to the worker pool together (see ``docs/ARCHITECTURE.md``).
Results are identical to per-circuit ``synth`` runs.

``--executor`` picks the engine executor: ``serial`` (default) replays the
historical recursion order bit-identically; ``process`` maps independent
output groups in ``--jobs`` worker processes, each on its own BDD manager;
``remote`` fans groups out across hosts through a task broker
(``--broker HOST:PORT``; see ``docs/DISTRIBUTED.md``).  The broker and its
workers are separate subcommands::

    python -m repro.cli broker --port 8378
    python -m repro.cli worker --broker 127.0.0.1:8378
    python -m repro.cli synth design.pla --executor remote --broker 127.0.0.1:8378

``--bdd-backend`` picks the BDD manager implementation: ``object``
(default, the reference dict-of-nodes manager) or ``arena`` (a flat numpy
node store with iterative integer kernels; requires numpy, exit code 2
when missing).  Both backends are canonical-form identical and emit
byte-identical BLIF; see ``docs/ENGINE.md``.  ``--auto-reorder`` arms
growth-triggered variable sifting between output groups (serial executor),
firing when the manager grows past ``--reorder-factor`` times its
post-build size.

Observability: ``--report FILE`` writes a machine-readable JSON run report
(per-phase wall-clock, BDD node and cache deltas, IMODEC iteration counts,
and the engine's task counters; see ``docs/OBSERVABILITY.md``), ``--trace``
prints the span tree to stderr, and ``--budget-seconds`` /
``--budget-nodes`` arm soft budgets that abort a runaway synthesis with
exit code 3 instead of running unbounded.

Reliability (process executor; see ``docs/RELIABILITY.md``):
``--task-timeout`` and ``--task-retries`` bound and retry failing groups,
``--inject-faults PLAN`` arms the deterministic fault harness,
``--checkpoint FILE`` persists completed groups and ``--resume FILE``
replays them for a byte-identical restart.  ``batch`` isolates circuit
failures: a crashing circuit is reported (exit code 1) while the others
still map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
import time
from pathlib import Path

from repro import observe
from repro.algebraic.rugged import rugged
from repro.bdd.backend import BACKEND_NAMES, DEFAULT_BACKEND, BackendUnavailable
from repro.engine import parse_fault_plan, synthesize_batch
from repro.engine.executors import request_cancel, reset_cancel, shutdown_pool
from repro.errors import (
    BudgetExceeded,
    CheckpointError,
    ReproError,
    RunInterrupted,
)
from repro.io import parse_network
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize, verify_flow, verify_flow_sim
from repro.mapping.structural import synthesize_structural
from repro.network.network import Network
from repro.network.stats import network_stats
from repro.observe import Budget, Tracer, build_report, format_tree
from repro.targets import AUTO_TARGET, TARGET_NAMES, make_target, report_section


def load_network(path: Path) -> Network:
    """Read a PLA or BLIF file, dispatching on suffix, then content.

    An explicit ``.pla`` / ``.blif`` suffix is authoritative; other
    suffixes fall back to sniffing the first token (see
    :func:`repro.io.parse_network`).  Unrecognizable content raises a
    one-line :class:`ValueError` (exit code 2 from :func:`main`).
    """
    fmt = {".pla": "pla", ".blif": "blif"}.get(path.suffix.lower())
    try:
        return parse_network(path.read_text(), name=path.stem, fmt=fmt)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _signals_cancel_drain():
    """Route SIGINT/SIGTERM into a graceful engine drain while active.

    The first signal requests cancellation
    (:func:`repro.engine.executors.request_cancel`): the executors unwind
    with :class:`RunInterrupted` at their next safe boundary, flushing any
    configured checkpoint on the way out, and :func:`main` maps that to
    exit code 130.  A second signal force-quits via
    :class:`KeyboardInterrupt`.  Outside the main thread (server runner
    threads, embedders) signals cannot be installed; the context is then
    a no-op and the caller's own drain hooks apply.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    signals_seen = 0

    def handler(signum: int, frame) -> None:
        nonlocal signals_seen
        signals_seen += 1
        if signals_seen > 1:
            raise KeyboardInterrupt
        request_cancel()
        print(
            "repro: interrupt received; draining and checkpointing "
            "(repeat to force quit)",
            file=sys.stderr,
        )

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        reset_cancel()


def _failure_kind(exc: ReproError) -> str:
    """Classify an error-exit exception for the report's failures array."""
    if isinstance(exc, BudgetExceeded):
        return "budget"
    if isinstance(exc, RunInterrupted):
        return "interrupted"
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    return "error"


def cmd_info(args: argparse.Namespace) -> int:
    net = load_network(Path(args.input))
    print(f"{net.name}: {network_stats(net)}")
    return 0


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    budgets: dict[str, Budget] = {}
    if args.budget_seconds is not None or args.budget_nodes is not None:
        budgets["synthesize"] = Budget(
            seconds=args.budget_seconds, nodes=args.budget_nodes
        )
    if args.report or args.trace or budgets:
        return Tracer(budgets=budgets)
    return None


def _make_config(args: argparse.Namespace) -> FlowConfig:
    fault_plan = (
        parse_fault_plan(args.inject_faults) if args.inject_faults else None
    )
    if fault_plan is not None and args.executor not in ("process", "remote"):
        raise ValueError("--inject-faults needs --executor process or remote")
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    if (checkpoint or resume) and args.executor not in ("process", "remote"):
        raise ValueError(
            "--checkpoint/--resume need --executor process or remote "
            "(the serial executor has no group boundary to checkpoint at)"
        )
    if (checkpoint or resume) and getattr(args, "structural", False):
        raise ValueError("--checkpoint/--resume do not apply to --structural")
    return FlowConfig(
        k=args.k,
        target=args.target,
        mode=args.mode,
        policy=args.policy,
        strict=args.strict,
        jobs=args.jobs,
        executor=args.executor,
        broker=getattr(args, "broker", None),
        bdd_backend=args.bdd_backend,
        auto_reorder=args.auto_reorder,
        reorder_factor=args.reorder_factor,
        task_timeout=args.task_timeout,
        task_retries=args.task_retries,
        fault_plan=fault_plan,
        checkpoint_path=checkpoint,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
        resume_from=resume,
        cache_db=getattr(args, "cache_db", None),
    )


def cmd_synth(args: argparse.Namespace) -> int:
    path = Path(args.input)
    net = load_network(path)
    reference = net.copy()
    print(f"input:  {net.name}: {network_stats(net)}")

    if args.rugged:
        start = time.perf_counter()
        rugged(net)
        print(f"rugged: {network_stats(net)}  ({time.perf_counter() - start:.1f}s)")

    config = _make_config(args)
    tracer = _make_tracer(args)

    def run() -> tuple:
        with observe.span("synthesize"):
            if args.structural:
                res = synthesize_structural(net, config)
            else:
                res = synthesize(net, config)
        with observe.span("verify"):
            if args.structural:
                good = verify_flow_sim(reference, res)
            else:
                good = verify_flow(reference, res)
        return res, good

    start = time.perf_counter()
    result = None
    ok = False
    error: ReproError | None = None
    try:
        with _signals_cancel_drain():
            if tracer is not None:
                with observe.tracing(tracer):
                    result, ok = run()
            else:
                result, ok = run()
    except ReproError as exc:
        # The report below must still be written: an error exit without
        # the requested --report file is a lost post-mortem.
        error = exc
    elapsed = time.perf_counter() - start

    target = make_target(config.target)
    cost = target.network_cost(result.network) if result is not None else None

    if tracer is not None:
        if error is not None:
            tracer.failure(kind=_failure_kind(error), error=str(error))
        if args.trace:
            print(format_tree(tracer), file=sys.stderr)
        if args.report:
            meta = {
                "circuit": net.name,
                "input": str(path),
                "k": config.k,
                "mode": args.mode,
                "structural": bool(args.structural),
                "rugged": bool(args.rugged),
                "jobs": args.jobs,
                "bdd_backend": config.bdd_backend,
                "verified": bool(ok) and error is None,
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
                target=report_section(
                    config.target,
                    config.k,
                    engine=engine_dict,
                    race_winners=(
                        result.race_winners if result is not None else None
                    ),
                    cost=cost,
                ),
            )
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
            print(f"report: {args.report}")

    if error is not None:
        raise error

    if not ok:
        print("ERROR: mapped network is NOT equivalent to the input", file=sys.stderr)
        return 1

    print(f"mapped: {result.num_luts} LUT{'s' if result.num_luts != 1 else ''} "
          f"(k = {config.k}, mode = {args.mode}, executor = {args.executor}, "
          f"{elapsed:.1f}s, verified)")
    if cost is not None and cost.detail:
        print(f"packed: {cost.units} {cost.unit_name}s ({cost.detail})")
    if result.race_winners:
        winners = ", ".join(
            f"{policy} x{wins}"
            for policy, wins in sorted(result.race_winners.items())
        )
        print(f"race:   winners: {winners}")
    if args.stats and result.records:
        print(f"decomposition vectors: {len(result.records)}, "
              f"max m = {result.max_group_outputs}, max p = {result.max_globals}")

    if args.output:
        Path(args.output).write_text(write_blif(result.network))
        print(f"wrote {args.output}")
    return 0


def _merge_engine_stats(results) -> dict:
    """Sum engine task counters across a batch (flat, report-ready).

    Failed circuits (``ReproError`` entries under ``fail_fast=False``) have
    no stats and are skipped.  The remote executor's nested ``remote``
    object merges key-wise (strings copied, counters summed).
    """
    merged: dict[str, int | str | dict] = {}
    for res in results:
        if isinstance(res, ReproError):
            continue
        for key, value in res.engine_stats.as_dict().items():
            if isinstance(value, dict):
                nested = merged.setdefault(key, {})
                assert isinstance(nested, dict)
                for nkey, nvalue in value.items():
                    if isinstance(nvalue, str):
                        nested[nkey] = nvalue
                    else:
                        nested[nkey] = int(nested.get(nkey, 0)) + nvalue
            elif isinstance(value, str):
                merged[key] = value
            elif key in ("workers", "queue_depth_max"):
                merged[key] = max(int(merged.get(key, 0)), value)
            else:
                merged[key] = int(merged.get(key, 0)) + value
    return merged


def cmd_batch(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.inputs]
    networks = [load_network(p) for p in paths]
    references = [net.copy() for net in networks]
    config = _make_config(args)
    tracer = _make_tracer(args)

    def run() -> tuple:
        with observe.span("synthesize"):
            batch = synthesize_batch(networks, config, fail_fast=False)
        with observe.span("verify"):
            good = [
                not isinstance(res, ReproError) and verify_flow(ref, res)
                for ref, res in zip(references, batch)
            ]
        return batch, good

    start = time.perf_counter()
    results: list = []
    ok: list = []
    error: ReproError | None = None
    try:
        with _signals_cancel_drain():
            if tracer is not None:
                with observe.tracing(tracer):
                    results, ok = run()
            else:
                results, ok = run()
    except ReproError as exc:
        # Keep going: the requested --report must be written even on an
        # error exit (the exception re-raises after the reporting block).
        error = exc
    elapsed = time.perf_counter() - start

    failures = 0
    mapped = [r for r in results if not isinstance(r, ReproError)]
    for net, res, good in zip(networks, results, ok):
        if isinstance(res, ReproError):
            failures += 1
            print(f"{net.name}: FAILED: {res}")
            continue
        status = "verified" if good else "NOT EQUIVALENT"
        failures += 0 if good else 1
        print(f"{net.name}: {res.num_luts} LUTs ({status})")
        if args.output_dir:
            out_dir = Path(args.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{net.name}.blif").write_text(write_blif(res.network))
    if error is None:
        print(f"batch:  {len(networks)} circuits, "
              f"{sum(r.num_luts for r in mapped)} LUTs total "
              f"(executor = {args.executor}, jobs = {args.jobs}, "
              f"{elapsed:.1f}s)")

    if tracer is not None:
        if error is not None:
            tracer.failure(kind=_failure_kind(error), error=str(error))
        if args.trace:
            print(format_tree(tracer), file=sys.stderr)
        if args.report:
            meta = {
                "circuits": ",".join(net.name for net in networks),
                "k": config.k,
                "mode": args.mode,
                "jobs": args.jobs,
                "luts": sum(r.num_luts for r in mapped),
                "verified": failures == 0 and error is None,
                "wall_clock_seconds": elapsed,
            }
            if error is not None:
                meta["error"] = str(error)
            race_winners: dict[str, int] = {}
            for res in mapped:
                for policy, wins in res.race_winners.items():
                    race_winners[policy] = race_winners.get(policy, 0) + wins
            engine_dict = _merge_engine_stats(results) if results else None
            report = build_report(
                tracer,
                meta=meta,
                engine=engine_dict,
                target=report_section(
                    config.target,
                    config.k,
                    engine=engine_dict,
                    race_winners=race_winners or None,
                ),
            )
            Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
            print(f"report: {args.report}")

    if error is not None:
        raise error

    if failures:
        print(f"ERROR: {failures} circuit(s) failed or NOT equivalent",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived HTTP synthesis daemon (see docs/SERVING.md)."""
    from repro.serve import ServerConfig, SynthesisServer

    server = SynthesisServer(
        ServerConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            runners=args.runners,
            backlog=args.backlog,
            state_dir=args.state_dir,
            cache_db=args.cache_db,
            task_retries=args.task_retries,
            fault_plan=args.inject_faults,
            broker=args.broker,
        )
    )
    return server.serve_forever()


def cmd_broker(args: argparse.Namespace) -> int:
    """Run the remote-executor task broker (see docs/DISTRIBUTED.md)."""
    from repro.engine.remote import BrokerConfig, TaskBroker

    broker = TaskBroker(
        BrokerConfig(host=args.host, port=args.port, cache_db=args.cache_db)
    )
    return broker.serve_forever()


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one remote decomposition worker against a broker."""
    from repro.engine.remote import run_worker

    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        def handler(signum: int, frame) -> None:
            stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return run_worker(
        args.broker,
        name=args.name,
        stop=stop,
        poll_seconds=args.poll_seconds,
        idle_exit=args.idle_exit,
    )


def _add_flow_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--mode", choices=["multi", "single"], default="multi",
                     help="multi = IMODEC sharing, single = classical baseline")
    cmd.add_argument("--k", type=int, default=None,
                     help="LUT input count (default: from --target, else 5)")
    cmd.add_argument("--target", default=AUTO_TARGET, metavar="NAME",
                     help="technology target: "
                          f"{', '.join(TARGET_NAMES)}, lut-<k> for any "
                          "k >= 3, or auto (xc3000-clb at k = 5, lut-<k> "
                          "otherwise; see docs/TARGETS.md)")
    cmd.add_argument("--policy", default="ladder-peel", metavar="SPEC",
                     help="decomposition policy (ladder-peel, peel-first, "
                          "flat-ladder), or a per-group portfolio race "
                          "'race:p1,p2,...' -- every candidate maps each "
                          "group and the cheapest result under --target "
                          "wins deterministically")
    cmd.add_argument("--executor", choices=["serial", "process", "remote"],
                     default="serial",
                     help="engine executor: serial replays the recursion order, "
                          "process fans groups out to worker processes, remote "
                          "fans them out across hosts through a task broker "
                          "(--broker; see docs/DISTRIBUTED.md)")
    cmd.add_argument("--broker", metavar="HOST:PORT",
                     help="task-broker address for --executor remote "
                          "(start one with 'repro broker', attach workers "
                          "with 'repro worker')")
    cmd.add_argument("--jobs", type=int, default=1,
                     help="engine worker processes (--executor process)")
    cmd.add_argument("--bdd-backend", choices=list(BACKEND_NAMES),
                     default=DEFAULT_BACKEND,
                     help="BDD manager implementation: object (reference) or "
                          "arena (flat numpy node store with iterative "
                          "kernels; same BLIF bytes, faster on large managers)")
    cmd.add_argument("--auto-reorder", action="store_true",
                     help="growth-triggered variable sifting between output "
                          "groups (see --reorder-factor)")
    cmd.add_argument("--reorder-factor", type=float, default=4.0, metavar="F",
                     help="auto-reorder trigger: sift when live nodes exceed "
                          "F times the post-build size (default 4.0)")
    cmd.add_argument("--strict", action="store_true",
                     help="strict (one-code-per-class) decomposition baseline")
    cmd.add_argument("--report", metavar="FILE",
                     help="write a JSON run report (see docs/OBSERVABILITY.md)")
    cmd.add_argument("--trace", action="store_true",
                     help="print the traced span tree to stderr")
    cmd.add_argument("--budget-seconds", type=float, metavar="S",
                     help="soft wall-clock budget of the synthesis phase")
    cmd.add_argument("--budget-nodes", type=int, metavar="N",
                     help="soft budget on BDD nodes allocated during synthesis")
    cmd.add_argument("--task-timeout", type=float, metavar="S",
                     help="per-group wall-clock ceiling under --executor "
                          "process (timed-out groups retry)")
    cmd.add_argument("--task-retries", type=int, default=2, metavar="N",
                     help="retries per failing group before degrading to the "
                          "serial executor (default 2)")
    cmd.add_argument("--inject-faults", metavar="PLAN",
                     help="deterministic fault injection, e.g. "
                          "'kill@0,delay=0.1@2' or 'seed=7,kills=2' "
                          "(see docs/RELIABILITY.md)")
    cmd.add_argument("--cache-db", metavar="FILE",
                     help="persistent result cache: an sqlite database of "
                          "canonically-fingerprinted group results, consulted "
                          "before decomposing and fed after (works with both "
                          "executors; see docs/CACHING.md)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IMODEC multiple-output decomposition flow"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print circuit statistics")
    info.add_argument("input", help="PLA or BLIF file")
    info.set_defaults(func=cmd_info)

    synth = sub.add_parser("synth", help="map a circuit to k-input LUTs")
    synth.add_argument("input", help="PLA or BLIF file")
    _add_flow_options(synth)
    synth.add_argument("--rugged", action="store_true",
                       help="pre-structure with the rugged-style script first")
    synth.add_argument("--structural", action="store_true",
                       help="partial-collapse flow (for circuits too large to collapse)")
    synth.add_argument("--stats", action="store_true",
                       help="print decomposition statistics (m, p)")
    synth.add_argument("--checkpoint", metavar="FILE",
                       help="write completed groups to FILE (process executor; "
                            "resume an interrupted run with --resume FILE)")
    synth.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                       help="flush the checkpoint every N merged groups "
                            "(default 1)")
    synth.add_argument("--resume", metavar="FILE",
                       help="replay the completed groups of a checkpoint file "
                            "(same circuit and flow knobs; byte-identical BLIF)")
    synth.add_argument("-o", "--output", help="write the mapped netlist as BLIF")
    synth.set_defaults(func=cmd_synth)

    batch = sub.add_parser(
        "batch", help="map many circuits through one shared work queue"
    )
    batch.add_argument("inputs", nargs="+", help="PLA or BLIF files")
    _add_flow_options(batch)
    batch.add_argument("-o", "--output-dir", metavar="DIR",
                       help="write each mapped netlist as DIR/<name>.blif")
    batch.set_defaults(func=cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="long-lived HTTP synthesis daemon (see docs/SERVING.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="TCP port (default 8377; 0 picks a free port)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="worker processes shared by all requests")
    serve.add_argument("--runners", type=int, default=2,
                       help="concurrent synthesis runs (request threads "
                            "multiplexed onto the one worker pool)")
    serve.add_argument("--backlog", type=int, default=16,
                       help="admission-queue bound; further submissions "
                            "are rejected with HTTP 503 (default 16)")
    serve.add_argument("--state-dir", metavar="DIR",
                       help="persist job specs and checkpoints under DIR "
                            "so a restarted server resumes in-flight jobs")
    serve.add_argument("--cache-db", metavar="FILE",
                       help="shared persistent result cache "
                            "(see docs/CACHING.md)")
    serve.add_argument("--task-retries", type=int, default=2, metavar="N",
                       help="retries per failing group (default 2)")
    serve.add_argument("--inject-faults", metavar="PLAN",
                       help="deterministic fault plan applied to every job "
                            "(testing only; see docs/RELIABILITY.md)")
    serve.add_argument("--broker", metavar="HOST:PORT",
                       help="delegate decomposition to a remote task broker "
                            "instead of the local worker pool "
                            "(see docs/DISTRIBUTED.md)")
    serve.set_defaults(func=cmd_serve)

    broker = sub.add_parser(
        "broker",
        help="remote-executor task broker (see docs/DISTRIBUTED.md)",
    )
    broker.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    broker.add_argument("--port", type=int, default=8378,
                        help="TCP port (default 8378; 0 picks a free port)")
    broker.add_argument("--cache-db", metavar="FILE",
                        help="shared persistent result cache consulted by "
                             "workers through the broker (see docs/CACHING.md)")
    broker.set_defaults(func=cmd_broker)

    worker = sub.add_parser(
        "worker",
        help="remote decomposition worker (see docs/DISTRIBUTED.md)",
    )
    worker.add_argument("--broker", required=True, metavar="HOST:PORT",
                        help="task-broker address to pull work from")
    worker.add_argument("--name", metavar="NAME",
                        help="worker name reported to the broker "
                             "(default host:pid)")
    worker.add_argument("--poll-seconds", type=float, default=2.0, metavar="S",
                        help="long-poll wait per request for new tasks "
                             "(default 2.0)")
    worker.add_argument("--idle-exit", type=float, default=None, metavar="S",
                        help="exit 0 after S seconds without work "
                             "(default: run until signalled)")
    worker.set_defaults(func=cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RunInterrupted as exc:
        # Graceful interrupt: checkpoints were flushed on the way out;
        # force the shared pool down so orphaned workers don't linger.
        shutdown_pool(force=True)
        print(f"repro: interrupted: {exc}", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        shutdown_pool(force=True)
        print("repro: interrupted", file=sys.stderr)
        return 130
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
