"""Substrate microbenchmarks: the BDD operations behind the implicit algorithm.

The JSON artifact carries one row per workload.  The ``large_apply`` suite
-- the adder-carry family at 16/18/20 bits -- builds managers in the
10^5..10^7-node regime of the flow's hot spots (collapsing rot/C5315/des);
the ``general`` suite covers the smaller workloads (restrict/exists sweeps,
satcount, subset thresholds, composition).

Includes a scaling check of the ``subset(delta, l)`` threshold construction
(Fig. 4), whose cost the paper states as O(delta * l) BDD operations.
"""

import time

import pytest

from benchmarks.conftest import QUICK, emit, json_row, reset_results, write_json
from repro.bdd.manager import BDD, FALSE
from repro.bdd.satcount import satcount
from repro.imodec.chi import threshold_at_least
from repro.imodec.zspace import ZSpace

MODULE = "bdd_ops"

LARGE_BITS = [14] if QUICK else [16, 18, 20]


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    emit(MODULE, "== BDD substrate microbenchmarks (* = large-apply suite) ==")
    emit(MODULE, f"{'workload':>26} | {'cpu':>9} | {'nodes':>9}")
    yield
    write_json(MODULE)


def _timed(benchmark, fn, pedantic=False):
    """Run ``fn`` under ``benchmark``; return ``(result, best seconds)``.

    Under ``--benchmark-disable`` pytest-benchmark calls ``fn`` once and
    records no stats, so that one call is timed here instead.
    """
    start = time.perf_counter()
    if pedantic:
        result = benchmark.pedantic(fn, rounds=1, iterations=1)
    else:
        result = benchmark(fn)
    elapsed = time.perf_counter() - start
    if benchmark.stats is not None:
        elapsed = benchmark.stats.stats.min
    return result, elapsed


def _record(name, cpu, bdd, large=False):
    stats = bdd.cache_stats()
    tag = " *" if large else ""
    emit(MODULE, f"{name:>26} | {cpu:>8.3f}s | {stats['nodes']:>9}{tag}")
    json_row(MODULE, name=name, cpu_s=round(cpu, 3),
             bdd_nodes=stats["nodes"],
             cache_hit_rate=round(stats["hit_rate"], 4),
             suite="large_apply" if large else "general")


def build_adder_carry(bdd, bits):
    """Carry chain of a ripple adder via xor/and/or -- the apply workhorse."""
    a = [bdd.add_var(f"a{i}") for i in range(bits)]
    b = [bdd.add_var(f"b{i}") for i in range(bits)]
    carry = FALSE
    for x, y in zip(a, b):
        s = bdd.apply_xor(x, y)
        carry = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_and(s, carry))
    return carry


@pytest.mark.parametrize("bits", [8, 12])
def test_bench_adder_carry(benchmark, bits):
    def build():
        bdd = BDD()
        return bdd, build_adder_carry(bdd, bits)

    (bdd, carry), cpu = _timed(benchmark, build)
    assert len(bdd.support(carry)) == 2 * bits
    _record(f"adder_carry_{bits}", cpu, bdd)


@pytest.mark.parametrize("bits", LARGE_BITS)
def test_bench_adder_carry_large(benchmark, bits):
    """The large-apply suite: managers in the flow's hot-spot regime."""

    def build():
        bdd = BDD()
        return bdd, build_adder_carry(bdd, bits)

    (bdd, carry), cpu = _timed(benchmark, build, pedantic=True)
    assert len(bdd.support(carry)) == 2 * bits
    _record(f"adder_carry_{bits}", cpu, bdd, large=True)


def test_bench_restrict_sweep(benchmark):
    """Single-level restricts over a large function (cofactor grouping)."""
    bits = 12 if QUICK else 16

    def run():
        bdd = BDD()
        carry = build_adder_carry(bdd, bits)
        for lvl in range(0, 2 * bits, 3):
            bdd.restrict(carry, {lvl: lvl % 2 == 0})
        return bdd

    bdd, cpu = _timed(benchmark, run, pedantic=True)
    _record(f"restrict_sweep_a{bits}", cpu, bdd)


def test_bench_exists_sweep(benchmark):
    """Existential quantification over a large function."""
    bits = 12 if QUICK else 16

    def run():
        bdd = BDD()
        carry = build_adder_carry(bdd, bits)
        for lvl in range(0, 2 * bits, 4):
            bdd.exists(carry, [lvl])
        return bdd

    bdd, cpu = _timed(benchmark, run, pedantic=True)
    _record(f"exists_sweep_a{bits}", cpu, bdd)


@pytest.mark.parametrize("n", [16, 20])
def test_bench_satcount_parity(benchmark, n):
    bdd = BDD()
    f = FALSE
    for i in range(n):
        f = bdd.apply_xor(f, bdd.add_var(f"x{i}"))
    count, cpu = _timed(benchmark, lambda: satcount(bdd, f, range(n)))
    assert count == 1 << (n - 1)
    _record(f"satcount_parity_{n}", cpu, bdd)


@pytest.mark.parametrize("l,delta", [(16, 4), (32, 8), (64, 16)])
def test_bench_subset_threshold(benchmark, l, delta):
    """subset(delta, l) of Fig. 4: O(delta * l) BDD operations."""
    zspace = ZSpace(l)
    lits = [zspace.bdd.var(i) for i in range(l)]

    node, cpu = _timed(benchmark, lambda: threshold_at_least(zspace, lits, delta))
    # sanity: count equals sum of binomials C(l, k) for k >= delta
    from math import comb

    expected = sum(comb(l, k) for k in range(delta, l + 1))
    assert zspace.count(node) == expected
    _record(f"subset_threshold_d{delta}_l{l}", cpu, zspace.bdd)


def test_bench_compose_chain(benchmark):
    """Vector composition of the kind used by decomposition verification."""
    bdd = BDD()
    xs = [bdd.add_var(f"x{i}") for i in range(12)]
    f = bdd.conjoin(bdd.apply_xor(xs[i], xs[i + 1]) for i in range(11))
    sub = {i: bdd.apply_and(xs[(i + 1) % 12], xs[(i + 2) % 12]) for i in range(6)}
    _, cpu = _timed(benchmark, lambda: bdd.compose(f, sub))
    _record("compose_chain", cpu, bdd)
