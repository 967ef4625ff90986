"""Ablation: output partitioning (grouping outputs into vectors f).

Section 7 attributes alu2's 902 CPU seconds to the greedy trial
decompositions and suggests better output partitioning as future work.
This bench compares:

- ``greedy``  -- the paper's heuristic (trial decompositions, undo on
  gain decrease);
- ``none``    -- every output alone (equivalent to single-output flow in
  grouping terms but still using the implicit decomposer).

The full run covers every collapsed Table 2 row except alu4 (whose greedy
row alone takes over a minute; see ``bench_table2_xc3000.py``), with that
bench's group caps, and records each row's CLBs and seconds; the totals
show what the trials cost and what they buy.  Greedy <= none in CLBs
(sharing helps) is asserted on every row.  A trial-free grouping by
support overlap, the future work the paper suggests, was measured here
and deleted: it packed 1,090 CLBs in 105.1 s against the greedy's 1,010
in 5.8 s (EXPERIMENTS.md).
"""

import time

import pytest

from benchmarks.bench_table2_xc3000 import FULL_SET, GROUP_CAPS
from benchmarks.conftest import QUICK, emit, reset_results
from repro.benchcircuits import get_circuit
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.mapping.xc3000 import pack_xc3000

MODULE = "ablation_output_partitioning"
QUICK_SET = ["rd73", "z4ml", "5xp1", "f51m"]
CIRCUITS = QUICK_SET if QUICK else [c for c in FULL_SET if c != "alu4"]
GROUPINGS = ["greedy", "none"]

_rows: dict[str, dict[str, tuple[int, float]]] = {}


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    subset = "quick subset" if QUICK else "collapsed Table 2 rows but alu4"
    emit(MODULE, f"== Ablation: output partitioning (multi mode, k = 5, {subset}) ==")
    emit(MODULE, f"{'net':>8} {'grouping':>9} {'cap':>4} {'CLBs':>6} "
                 f"{'records':>7} {'time/s':>8}")
    yield
    for grouping in GROUPINGS:
        rows = [per[grouping] for per in _rows.values() if grouping in per]
        if rows:
            emit(MODULE, f"{'total':>8} {grouping:>9} {'':>4} "
                         f"{sum(r[0] for r in rows):>6} {'':>7} "
                         f"{sum(r[1] for r in rows):>8.2f}")
    for name, per in _rows.items():
        if "greedy" in per and "none" in per:
            assert per["greedy"][0] <= per["none"][0], (
                f"{name}: greedy grouping should not lose to no grouping"
            )


def _config(grouping: str, cap: int | None) -> FlowConfig:
    if grouping == "greedy":
        return FlowConfig(k=5, mode="multi", max_group=cap)
    if grouping == "none":
        return FlowConfig(k=5, mode="multi", use_output_partitioning=False)
    raise ValueError(grouping)


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("grouping", GROUPINGS)
def test_output_partitioning(benchmark, name, grouping):
    net = get_circuit(name).build()
    cap = GROUP_CAPS.get(name)
    config = _config(grouping, cap)
    start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: synthesize(net, config), rounds=1, iterations=1
    )
    seconds = time.perf_counter() - start
    assert verify_flow(net, result)
    clbs = pack_xc3000(result.network).num_clbs
    _rows.setdefault(name, {})[grouping] = (clbs, seconds)
    emit(MODULE, f"{name:>8} {grouping:>9} {cap or '-':>4} {clbs:>6} "
                 f"{len(result.records):>7} {seconds:>8.2f}")
