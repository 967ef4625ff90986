"""Golden BLIF digests: the emitted bytes of the reference flows, pinned.

Each digest is the sha256 of ``write_blif`` of the mapped network under the
default ``FlowConfig(k=5)`` (serial executor unless noted),
the same digests ``perfbench/run.py`` prints per circuit.  A refactor of
any layer below the flow -- BDD package, bound-set scoring, IMODEC, the
engine -- must leave every digest unchanged.  vg2 has outputs wider than
the truth-table limit, so its bound sets are scored on the BDD route.

The executor cells map the same circuits on the process pool, through the
serial executor's portable path (a cold, then a warm result cache) and
as one pipelined process batch of all four circuits (one or two workers,
fault-free, with a worker kill, and under a seeded-random fault plan):
every executor must emit the same bytes.  Naming the
default target explicitly (``--target xc3000-clb``) must not change them
either, and the CLI must emit them in an interpreter without numpy or
networkx.
"""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import observe
from repro.algebraic.rugged import rugged
from repro.benchcircuits import get_circuit
from repro.engine import synthesize_batch
from repro.engine.executors import ProcessExecutor
from repro.engine.faults import FaultPlan, FaultSpec
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, prepare_synthesis, synthesize
from repro.mapping.structural import synthesize_structural
from repro.observe import Tracer

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN = {
    "rd53": "18202d2aa0294ba9a10e87feafb7ec980560627b40e756a6deccf2482c64816f",
    "5xp1": "c9d85d972bb402aecaa6bce0b7720c54365be2ee6802e0f5d5adebf8a64aa962",
    "misex1": "bb6d70e19f7e610fe6de42ee5730bc51819bd49f783a23e6be9ee442e42cd551",
    "vg2": "9f658ae7e1e77d4e720185c3d6e5e986120143cc1404d3f1e8df0116e4f7d902",
}


def digest(result) -> str:
    return hashlib.sha256(write_blif(result.network).encode()).hexdigest()


@pytest.mark.parametrize("name", ["rd53", "5xp1", "misex1", "vg2"])
def test_collapsed_flow(name):
    result = synthesize(get_circuit(name).build(), FlowConfig(k=5))
    assert digest(result) == GOLDEN[name]


def test_rugged_structural_flow():
    network = rugged(get_circuit("misex1").build().copy())
    assert digest(synthesize_structural(network, FlowConfig(k=5))) == GOLDEN["misex1"]


# Runs the CLI in an interpreter where importing the module named by the
# first argument raises ImportError.
_CLI_WITHOUT = (
    "import sys; sys.modules[sys.argv.pop(1)] = None; "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


def synth_rd53_without(module: str, tmp_path) -> str:
    """sha256 of ``synth rd53`` run by a CLI that cannot import ``module``."""
    source = tmp_path / "rd53.blif"
    source.write_text(write_blif(get_circuit("rd53").build()))
    mapped = tmp_path / "mapped.blif"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITHOUT, module,
         "synth", str(source), "-o", str(mapped)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CLB" in proc.stdout  # the report packed the mapped network
    return hashlib.sha256(mapped.read_bytes()).hexdigest()


def test_cli_runs_without_numpy(tmp_path):
    # numpy is no dependency of the package: the CLI must emit the golden
    # bytes without it.
    assert synth_rd53_without("numpy", tmp_path) == GOLDEN["rd53"]


def test_cli_runs_without_networkx(tmp_path):
    # Nor is networkx: the CLB packer computes its maximum matching itself.
    assert synth_rd53_without("networkx", tmp_path) == GOLDEN["rd53"]


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_rugged_collapsed_flow(executor):
    # What ``synth --rugged`` runs.  Collapsing removes the rugged script's
    # structure, so the bytes are those of the collapsed flow.
    network = rugged(get_circuit("misex1").build().copy())
    config = FlowConfig(k=5, executor=executor, jobs=2)
    assert digest(synthesize(network, config)) == GOLDEN["misex1"]


def test_traced_trials_take_the_gain_bound():
    # The golden misex1 bytes come out of trial decompositions that the
    # gain bound stopped early, and of a skipped duplicate scorer.
    tracer = Tracer()
    with observe.tracing(tracer):
        result = synthesize(get_circuit("misex1").build(), FlowConfig(k=5))
    assert digest(result) == GOLDEN["misex1"]
    counters: Counter = Counter()
    spans = [tracer.root]
    while spans:
        span = spans.pop()
        if span.name == "partition_outputs":
            counters.update(span.counters)
        spans.extend(span.children.values())
    assert counters["trial_aborts"] >= 1
    assert counters["scorer_race_skips"] >= 1


@pytest.mark.parametrize(
    "name, executor, prestructure",
    [("rd53", "serial", False), ("rd53", "process", False), ("misex1", "process", True)],
    ids=["rd53-serial", "rd53-process", "rugged-misex1-process"],
)
def test_explicit_xc3000_target(name, executor, prestructure):
    network = get_circuit(name).build()
    if prestructure:
        network = rugged(network.copy())
    config = FlowConfig(target="xc3000-clb", executor=executor, jobs=2)
    assert digest(synthesize(network, config)) == GOLDEN[name]


def executor_runs(cell: str, tmp_path) -> list[FlowConfig]:
    """The configurations one executor cell runs, in order."""
    if cell == "process":
        return [FlowConfig(k=5, executor="process", jobs=2)]
    # A cold run fills the cache the second run reads.
    return [FlowConfig(k=5, cache_db=str(tmp_path / "cache.db"))] * 2


@pytest.mark.parametrize("cell", ["process", "serial-warm-cache"])
@pytest.mark.parametrize("name", ["rd53", "misex1"])
def test_executor_cells(name, cell, tmp_path):
    for config in executor_runs(cell, tmp_path):
        result = synthesize(get_circuit(name).build(), config)
        assert digest(result) == GOLDEN[name]
    if cell == "serial-warm-cache":
        assert result.engine_stats.cache_misses == 0


def batch_fault_plan(cell: str, group_counts: list[int]) -> FaultPlan | None:
    """The fault plan one batch cell runs under."""
    if cell == "kill-last":  # the first group of the last network
        return FaultPlan(specs=(FaultSpec("kill", sum(group_counts[:-1])),))
    if cell == "seeded":
        return FaultPlan(seed=3, kills=2, delays=1, delay_seconds=0.01)
    return None


@pytest.mark.parametrize("cell", ["plain", "kill-last", "seeded"])
@pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
def test_process_batch(jobs, cell, monkeypatch):
    # The pipelined batch submits each network's groups before preparing
    # the next one; a seeded-random plan still samples its ordinals from
    # the whole batch's group count.
    names = list(GOLDEN)
    networks = [get_circuit(name).build() for name in names]
    group_counts = [
        len(prepare_synthesis(n, FlowConfig(k=5)).groups) for n in networks
    ]
    plan = batch_fault_plan(cell, group_counts)
    armed = []
    real_submit = ProcessExecutor._pool_submit

    def submit(self, payload):
        if payload.fault is not None:
            armed.append(payload.fault)
        return real_submit(self, payload)

    monkeypatch.setattr(ProcessExecutor, "_pool_submit", submit)
    results = synthesize_batch(
        networks,
        FlowConfig(k=5, executor="process", jobs=jobs, fault_plan=plan),
    )
    assert [digest(r) for r in results] == [GOLDEN[name] for name in names]
    expected = plan.resolve(sum(group_counts)).specs if plan else ()
    assert Counter(armed) == Counter(expected)
