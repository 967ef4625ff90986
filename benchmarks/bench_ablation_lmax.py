"""Ablation: the implicit Lmax step.

Two checks around the paper's Section 6 machinery:

- *implicit vs explicit*: the layered Lmax must agree with brute-force
  enumeration of all 2^p z-vertices, and scale past the point where
  enumeration dies (the paper's motivation for implicit techniques; the
  covering-table construction was their bottleneck for p >= 50).  The
  small sizes run on bit-set z-spaces, the large ones on BDDs
  (``repro.imodec.zspace.BITSET_MAX_CLASSES``).
- *tie-break strategies*: "balanced" reproduces the paper's d1 choice on the
  running example and is compared against lexicographic "first" on the
  benchmark flows.
"""

import random

import pytest

from benchmarks.conftest import emit, reset_results
from repro.benchcircuits import get_circuit
from repro.imodec.chi import chi_for_output
from repro.imodec.lmax import count_layers, lmax
from repro.imodec.zspace import BITSET_MAX_CLASSES, BaseZSpace, make_zspace
from repro.mapping.flow import FlowConfig, synthesize, verify_flow

MODULE = "ablation_lmax"


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    emit(MODULE, "== Ablation: implicit Lmax ==")
    yield


def random_chis(p: int, m: int, seed: int):
    """Random characteristic functions built from real chi structure.

    Local-class sizes grow with p, keeping the class count l moderate: the
    paper itself notes the method "may become very expensive for p >= 50"
    when the characteristic functions carry many interleaved classes, so the
    scaling series holds l roughly constant while p grows.
    """
    rng = random.Random(seed)
    zspace = make_zspace(p)
    size_lo = max(1, p // 8)
    size_hi = max(3, p // 4)
    chis = []
    for _ in range(m):
        # random partition of the p classes into local classes
        classes = []
        ids = list(range(p))
        rng.shuffle(ids)
        while ids:
            take = min(len(ids), rng.randint(size_lo, size_hi))
            classes.append(sorted(ids[:take]))
            ids = ids[take:]
        codew = max(1, (len(classes) - 1).bit_length())
        chis.append(chi_for_output(zspace, [classes], codew, normalize=False))
    return zspace, chis


def explicit_lmax(zspace: BaseZSpace, chis) -> int:
    best = 0
    for vertex in range(1 << zspace.p):
        env = {i: bool((vertex >> i) & 1) for i in range(zspace.p)}
        count = sum(1 for chi in chis if zspace.contains(chi, env))
        best = max(best, count)
    return best


@pytest.mark.parametrize("p", [6, 10, 14])
def test_lmax_matches_explicit(benchmark, p):
    zspace, chis = random_chis(p, m=4, seed=p)
    assert zspace.bitset == (p <= BITSET_MAX_CLASSES)
    result = benchmark.pedantic(lambda: lmax(zspace, chis), rounds=3, iterations=1)
    assert result.count == explicit_lmax(zspace, chis)
    emit(MODULE, f"  p = {p:>2}: implicit max count {result.count} == explicit")


@pytest.mark.parametrize("p", [24, 40, 64])
def test_lmax_scales_implicitly(benchmark, p):
    """Sizes where 2^p enumeration is impossible run in milliseconds."""
    zspace, chis = random_chis(p, m=5, seed=p)
    assert not zspace.bitset
    result = benchmark.pedantic(lambda: lmax(zspace, chis), rounds=3, iterations=1)
    assert 1 <= result.count <= 5
    layers = count_layers(zspace, chis)
    assert len(layers) == 6
    emit(MODULE, f"  p = {p:>2}: implicit Lmax fine (2^p = {1 << p:.1e} vertices)")


@pytest.mark.parametrize("tie_break", ["first", "balanced"])
def test_tie_break_effect(benchmark, tie_break):
    net = get_circuit("rd73").build()
    config = FlowConfig(k=5, mode="multi", tie_break=tie_break)
    result = benchmark.pedantic(lambda: synthesize(net, config), rounds=1, iterations=1)
    assert verify_flow(net, result)
    emit(MODULE, f"  rd73 tie-break {tie_break:>8}: {result.num_luts} LUTs")
