"""Ablation: the decomposition policy, and whether racing policies pays.

Each output group is decomposed by a policy (``FlowConfig.policy``):

- ``ladder-peel`` -- the default: widen the bound set until some output
  progresses, and peel outputs that share nothing off the vector;
- ``flat-ladder`` -- the same ladder, never peeling;
- ``race``        -- ``race:ladder-peel,flat-ladder``: every group is
  mapped by both, and the cheaper mapped group (CLB lower bound, ties to
  spec order) is kept.

The full run covers every collapsed Table 2 row except alu4 (see
``bench_table2_xc3000.py``), with that bench's group caps, serial, and
records each policy's CLBs and seconds per row.  Every mapping is
checked with ``verify_flow``, and the race's CLB total must not exceed
the default policy's: a race that does not beat its own first candidate
does not earn its place.
"""

import time

import pytest

from benchmarks.bench_table2_xc3000 import FULL_SET, GROUP_CAPS
from benchmarks.conftest import QUICK, emit, reset_results
from repro.benchcircuits import get_circuit
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.mapping.xc3000 import pack_xc3000

MODULE = "ablation_policy"
QUICK_SET = ["alu2", "misex2", "vg2", "5xp1"]
CIRCUITS = QUICK_SET if QUICK else [c for c in FULL_SET if c != "alu4"]
POLICIES = {
    "ladder-peel": "ladder-peel",
    "flat-ladder": "flat-ladder",
    "race": "race:ladder-peel,flat-ladder",
}

_rows: dict[str, dict[str, tuple[int, float]]] = {}


def _cells(per: dict[str, tuple[int, float]]) -> str:
    return " ".join(
        f"{per[column][0]:>6} {per[column][1]:>7.2f}" for column in POLICIES
    )


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    subset = "quick subset" if QUICK else "collapsed Table 2 rows but alu4"
    emit(MODULE, f"== Ablation: decomposition policy (multi mode, k = 5, "
                 f"serial, {subset}) ==")
    emit(MODULE, f"{'':>8} {'':>4} " + " ".join(
        f"{column:>14}" for column in POLICIES
    ))
    emit(MODULE, f"{'net':>8} {'cap':>4} " + " ".join(
        f"{'CLBs':>6} {'time/s':>7}" for _ in POLICIES
    ))
    yield
    if not _rows:
        return
    totals = {
        column: (
            sum(per[column][0] for per in _rows.values()),
            sum(per[column][1] for per in _rows.values()),
        )
        for column in POLICIES
    }
    emit(MODULE, f"{'total':>8} {'':>4} {_cells(totals)}")
    assert totals["race"][0] <= totals["ladder-peel"][0], (
        "the race should not pack more CLBs than its default candidate"
    )


@pytest.mark.parametrize("name", CIRCUITS)
def test_policy(benchmark, name):
    net = get_circuit(name).build()
    cap = GROUP_CAPS.get(name)
    per: dict[str, tuple[int, float]] = {}

    def run_all():
        for column, policy in POLICIES.items():
            start = time.perf_counter()
            result = synthesize(
                net, FlowConfig(k=5, mode="multi", max_group=cap, policy=policy)
            )
            seconds = time.perf_counter() - start
            assert verify_flow(net, result), f"{name} under {policy}"
            per[column] = (pack_xc3000(result.network).num_clbs, seconds)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    _rows[name] = per
    emit(MODULE, f"{name:>8} {cap or '-':>4} {_cells(per)}")
