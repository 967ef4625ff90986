"""Table 2, columns IMODEC / Single: mapping collapsed networks to XC3000.

For every non-starred circuit of Table 2: collapse the network, run the
multiple-output (IMODEC) and single-output flows at k = 5, pack XC3000 CLBs
and compare against the paper's reference values.  The headline claim is the
*relative* result -- multiple-output decomposition uses fewer (never more)
CLBs, with an average reduction around 38 % in the paper.

Absolute counts are expected to differ where the circuit is a synthetic
equivalent (see DESIGN.md section 4); the table prints both.  The
machine-readable ``BENCH_table2_xc3000.json`` holds both CLB columns of
every row and the IMODEC run's per-phase breakdown.
"""

import time

import pytest

from benchmarks.conftest import (
    QUICK,
    emit,
    fmt,
    json_row,
    reset_results,
    run_traced,
    write_json,
)
from repro.benchcircuits import get_circuit, list_circuits
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.mapping.xc3000 import pack_xc3000

MODULE = "table2_xc3000"

QUICK_SET = ["5xp1", "9sym", "clip", "f51m", "misex1", "rd73", "rd84", "z4ml", "vg2"]
FULL_SET = [c.name for c in list_circuits(collapsible=True) if c.name not in ("rd53", "term1")]

CIRCUITS = QUICK_SET if QUICK else FULL_SET

#: per-circuit knobs: the paper had to "limit m" for alu4.
GROUP_CAPS = {"alu4": 6, "apex6": 8, "duke2": 8}

_rows: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    emit(MODULE, "== Table 2: XC3000 CLBs, collapsed networks "
                 f"({'quick subset' if QUICK else 'full set'}) ==")
    emit(MODULE, f"{'net':>8} {'m/p':>7} | {'IMODEC':>7} {'Single':>7} | "
                 f"{'paper-I':>7} {'paper-S':>7} | {'CPU/s':>7}")
    yield
    if not _rows:
        return
    tot_multi = sum(r["multi"] for r in _rows)
    tot_single = sum(r["single"] for r in _rows)
    saving = 100.0 * (1 - tot_multi / tot_single) if tot_single else 0.0
    paper_rows = [r for r in _rows if r["paper_multi"] and r["paper_single"]]
    p_multi = sum(r["paper_multi"] for r in paper_rows)
    p_single = sum(r["paper_single"] for r in paper_rows)
    p_saving = 100.0 * (1 - p_multi / p_single) if p_single else 0.0
    emit(MODULE, f"{'total':>8} {'':>7} | {tot_multi:>7} {tot_single:>7} | "
                 f"{p_multi:>7} {p_single:>7} |")
    emit(MODULE, f"  measured average CLB reduction: {saving:.0f}%  "
                 f"(paper, same rows: {p_saving:.0f}%; paper, full set: 38%)")
    wins = sum(1 for r in _rows if r["multi"] < r["single"])
    ties = sum(1 for r in _rows if r["multi"] == r["single"])
    losses = len(_rows) - wins - ties
    emit(MODULE, f"  win/tie/loss for multiple-output: "
                 f"{wins}/{ties}/{losses}")
    write_json(
        MODULE,
        total_clb_multi=tot_multi,
        total_clb_single=tot_single,
        saving_pct=round(saving, 1),
        wins=wins,
        ties=ties,
        losses=losses,
    )


@pytest.mark.parametrize("name", CIRCUITS)
def test_table2_circuit(benchmark, name):
    circuit = get_circuit(name)
    net = circuit.build()
    cap = GROUP_CAPS.get(name)

    def run_multi():
        return run_traced(
            lambda: synthesize(net, FlowConfig(k=5, mode="multi", max_group=cap))
        )

    start = time.perf_counter()
    multi, phases = benchmark.pedantic(run_multi, rounds=1, iterations=1)
    cpu = time.perf_counter() - start
    single = synthesize(net, FlowConfig(k=5, mode="single"))

    assert verify_flow(net, multi), f"{name}: IMODEC mapping not equivalent"
    assert verify_flow(net, single), f"{name}: single mapping not equivalent"

    clb_multi = pack_xc3000(multi.network).num_clbs
    clb_single = pack_xc3000(single.network).num_clbs
    # The central claim: sharing never costs CLBs (allow tiny heuristic noise).
    assert clb_multi <= clb_single * 1.1 + 1, f"{name}: multi much worse than single"

    paper = circuit.paper
    _rows.append(dict(name=name, multi=clb_multi, single=clb_single,
                      paper_multi=paper.imodec_clb, paper_single=paper.single_clb))
    mp = f"{multi.max_group_outputs}/{multi.max_globals}"
    emit(MODULE, f"{name:>8} {mp:>7} | {clb_multi:>7} {clb_single:>7} | "
                 f"{fmt(paper.imodec_clb)} {fmt(paper.single_clb)} | {cpu:>7.1f}")
    stats = multi.bdd_stats
    json_row(
        MODULE,
        name=name,
        clb_multi=clb_multi,
        clb_single=clb_single,
        max_outputs=multi.max_group_outputs,
        max_globals=multi.max_globals,
        cpu_s=round(cpu, 2),
        bdd_nodes=stats.nodes,
        cache_hit_rate=round(stats.hit_rate, 4),
        phases=phases,
    )
