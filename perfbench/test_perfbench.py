"""Tests of the benchmark itself: fixtures, the output check, repeatable counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from repro.benchcircuits import get_circuit  # noqa: E402
from repro.io.blif import parse_blif  # noqa: E402
from workloads import (  # noqa: E402
    FIXTURES,
    WORKLOADS,
    Checker,
    Workload,
    flow_config,
    input_words,
    load_inputs,
    simulate,
)

#: Counts that must repeat exactly between two runs of the same code.
DETERMINISTIC = (
    "partitioning.candidates_scored",
    "partitioning.trials",
    "bdd.nodes",
    "engine.tasks_total",
)

SMALL_PLAS = ("rd84", "misex1", "5xp1")


def _outputs(network, words, count):
    values = simulate(network, words, count)
    return {out: values[out] for out in network.outputs}


@pytest.mark.parametrize("name", WORKLOADS["rugged-large"].circuits)
def test_fixture_simulates_equal_to_source(name):
    fixture = parse_blif((FIXTURES / f"{name}.blif").read_text(encoding="utf-8"))
    source = get_circuit(name).build()
    assert sorted(fixture.inputs) == sorted(source.inputs)
    assert list(fixture.outputs) == list(source.outputs)
    words, count = input_words(list(source.inputs), seed=7, name=name)
    assert _outputs(fixture, words, count) == _outputs(source, words, count)


@pytest.mark.parametrize("name", ["rd53", "alu2", "vg2", "rot"])
def test_simulate_matches_network_evaluate(name):
    network = get_circuit(name).build()
    words, count = input_words(list(network.inputs), seed=5, name=name)
    values = simulate(network, words, count)
    for i in range(0, count, max(1, count // 64)):
        vector = {pi: bool((words[pi] >> i) & 1) for pi in network.inputs}
        expected = network.evaluate_outputs(vector)
        assert all(bool((values[o] >> i) & 1) == expected[o] for o in network.outputs)


def test_checker_rejects_a_wrong_netlist():
    source = get_circuit("rd53").build()
    outs = list(source.outputs)
    right = SimpleNamespace(network=source, output_signals={o: o for o in outs})
    rotated = dict(zip(outs, outs[1:] + outs[:1]))
    wrong = SimpleNamespace(network=source, output_signals=rotated)
    checker = Checker(seed=1)
    assert checker.check("rd53", "right", right)
    assert not checker.check("rd53", "wrong", wrong)


def _traced_slice(workload: Workload) -> tuple[dict, int]:
    """Per-layer metrics and CLB total of one checked traced pass."""
    inputs = load_inputs(workload)
    nets = [(name, inputs[name].copy()) for name in workload.circuits]
    done = run.run_pass(
        workload, nets, flow_config(workload), Checker(seed=3), traced=True
    )
    for row in done.rows:
        assert not row.error, row.error
    return done.layers, sum(row.clbs for row in done.rows)


@pytest.mark.parametrize(
    "workload",
    [
        Workload("slice-rugged", ("rot",), "structural"),
        Workload("slice-collapsed", SMALL_PLAS, "collapsed"),
        Workload("slice-batch", SMALL_PLAS, "batch"),
    ],
    ids=lambda w: w.name,
)
def test_traced_counts_repeat(workload):
    first, clbs_first = _traced_slice(workload)
    second, clbs_second = _traced_slice(workload)
    assert clbs_first == clbs_second > 0
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["partitioning.candidates_scored"] > 0
    assert first["engine.tasks_total"] > 0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rugged-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
