"""The column-count search for one output, and the kernel's winner memo.

``BoundSetKernel.column_search`` must pick the candidate the kernel's own
first-minimum scan picks (under both scorers) whenever it applies, and
decline every other shape.  The winner memo and the per-run kernel must
never change a chosen bound set.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.bdd.manager import BDD
from repro.benchcircuits import get_circuit
from repro.engine.executors import Engine
from repro.engine.faults import FaultPlan
from repro.io.blif import write_blif
from repro.mapping import flow as flow_module
from repro.mapping.flow import FlowConfig, synthesize
from repro.network.network import Network
from repro.observe import Tracer
from repro.partitioning.kernel import COLUMN_MIN_FREE, TT_MAX_VARS, BoundSetKernel
from repro.partitioning.outputs import partition_outputs
from repro.partitioning.variables import (
    _first_minimum,
    choose_bound_set,
    score_bound_set,
)


@st.composite
def single_outputs(draw):
    """One output whose support is exactly its (shuffled) candidate levels.

    3 to 9 free variables and 1 to 3 bound ones, spread over a manager with
    unused levels in between; half the outputs are ``h(B) op r(rest)`` for
    a random ``B``, so a two-column candidate exists and the scan stops.
    """
    free = draw(st.integers(COLUMN_MIN_FREE, 9), label="free")
    size = draw(st.integers(1, 3), label="size")
    n = free + size
    bdd = BDD()
    bdd.add_vars(n + 3)
    levels = sorted(draw(st.permutations(range(n + 3)))[:n])
    if draw(st.booleans(), label="decomposable"):
        bound = draw(st.permutations(levels))[:size]
        rest = [lvl for lvl in levels if lvl not in bound]
        h = bdd.from_truth_bits(
            draw(st.integers(0, (1 << (1 << size)) - 1)), bound
        )
        r = bdd.from_truth_bits(draw(st.integers(0, (1 << (1 << free)) - 1)), rest)
        f = (bdd.apply_xor if draw(st.booleans()) else bdd.apply_and)(h, r)
    else:
        f = bdd.from_truth_bits(draw(st.integers(0, (1 << (1 << n)) - 1)), levels)
    assume(bdd.support(f) == frozenset(levels))
    order = draw(st.permutations(levels), label="order")
    return bdd, f, list(order), size


class TestColumnSearch:
    @given(single_outputs())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_kernels_first_minimum(self, case):
        bdd, f, levels, size = case
        found = BoundSetKernel().column_search(bdd, f, levels, size)
        assert found is not None
        combo, examined = found
        combos = list(itertools.combinations(levels, size))
        triples = BoundSetKernel().triples(bdd, [f], combos)
        for scorer in ("compact", "shared"):
            assert combo == combos[_first_minimum(triples, scorer)]
        # The scan stops at the first two-column candidate, if any.
        counts = [p for p, _, _ in triples]
        stop = counts.index(2) + 1 if 2 in counts else len(combos)
        assert examined == stop
        assert min(counts) >= 2

    @given(single_outputs())
    @settings(max_examples=30, deadline=None)
    def test_choice_and_memo_triple_match_the_reference(self, case):
        bdd, f, levels, size = case
        kernel = BoundSetKernel()
        bs, fs = choose_bound_set(
            bdd, [f], levels, size, strategy="exhaustive", kernel=kernel
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BoundSetKernel, "column_search", lambda *args: None)
            assert (bs, fs) == choose_bound_set(
                bdd, [f], levels, size, strategy="exhaustive", scorer="shared"
            )
        p, classes, dependence = kernel.score(bdd, [f], bs)
        assert (p, classes, -dependence) == score_bound_set(bdd, [f], bs)

    def test_declined_shapes(self):
        bdd = BDD()
        bdd.add_vars(16)
        kernel = BoundSetKernel()
        six = bdd.from_truth_bits(0x6996_9669_1EE1_8EE8, list(range(6)))
        assert bdd.support(six) == frozenset(range(6))
        # too few free variables for whole-byte columns
        assert kernel.column_search(bdd, six, list(range(6)), 4) is None
        # a candidate level outside the support
        assert kernel.column_search(bdd, six, list(range(7)), 2) is None
        # a support level missing from the candidates
        assert kernel.column_search(bdd, six, list(range(5)), 1) is None
        # too wide for a truth table
        parity = 0
        for lvl in range(TT_MAX_VARS + 1):
            parity = bdd.apply_xor(parity, bdd.var(lvl))
        wide = list(range(TT_MAX_VARS + 1))
        assert kernel.column_search(bdd, parity, wide, 2) is None
        # the shape it takes
        assert kernel.column_search(bdd, six, list(range(6)), 3) is not None

    def test_counts_the_candidates_it_examined(self):
        bdd = BDD()
        bdd.add_vars(6)
        # (x0 ^ x1) & g(x2..x5): the first candidate {x0, x1} has two columns
        f = bdd.apply_and(
            bdd.apply_xor(bdd.var(0), bdd.var(1)),
            bdd.from_truth_bits(0xE8E8_E8FF, [2, 3, 4, 5]),
        )
        assert bdd.support(f) == frozenset(range(6))
        tracer = Tracer()
        with observe.tracing(tracer):
            bs, _ = choose_bound_set(bdd, [f], list(range(6)), 2)
        assert bs == [0, 1]
        assert totals(tracer)["candidates_scored"] == 1


def totals(tracer) -> Counter:
    counters: Counter = Counter()
    spans = [tracer.root]
    while spans:
        span = spans.pop()
        counters.update(span.counters)
        spans.extend(span.children.values())
    return counters


def three_outputs():
    bdd = BDD()
    bdd.add_vars(6)
    nodes = [
        bdd.from_truth_bits(0x6996_9669, [0, 1, 2, 3, 4]),
        bdd.from_truth_bits(0x8EE8, [1, 2, 3, 5]),
        bdd.from_truth_bits(0x1EE1, [0, 2, 4, 5]),
    ]
    return bdd, nodes


class TestWinnerMemo:
    def test_a_repeated_search_is_a_lookup(self):
        bdd, nodes = three_outputs()
        kernel = BoundSetKernel()
        tracer = Tracer()
        with observe.tracing(tracer):
            first = choose_bound_set(bdd, nodes, list(range(6)), 3, kernel=kernel)
            again = choose_bound_set(bdd, nodes, list(range(6)), 3, kernel=kernel)
            other = choose_bound_set(
                bdd, nodes, list(range(6)), 3, scorer="shared", kernel=kernel
            )
        assert first == again
        assert other == choose_bound_set(
            bdd, nodes, list(range(6)), 3, scorer="shared"
        )
        counters = totals(tracer)
        assert counters["bound_set_memo_hits"] == 1
        assert counters["candidates_scored"] == 2 * 20

    def test_the_winner_is_kept_per_candidate_order(self):
        bdd, nodes = three_outputs()
        kernel = BoundSetKernel()
        for levels in (list(range(6)), list(range(6))[::-1]):
            assert choose_bound_set(
                bdd, nodes, levels, 2, kernel=kernel
            ) == choose_bound_set(bdd, nodes, levels, 2)

    def test_partition_outputs_keeps_a_borrowed_kernel(self):
        bdd, nodes = three_outputs()
        kernel = BoundSetKernel()
        borrowed = partition_outputs(bdd, nodes, list(range(6)), 3, kernel=kernel)
        assert len(kernel) > 0
        assert borrowed == partition_outputs(bdd, nodes, list(range(6)), 3)


def build_engine(config: FlowConfig) -> Engine:
    bdd = BDD()
    bdd.add_vars(2)
    return Engine(bdd, config, Network("mapped"), {})


class TestSharedKernel:
    def test_only_an_in_place_serial_run_shares(self, tmp_path):
        serial = build_engine(FlowConfig())
        assert serial.partition_kernel() is serial.emitter.policy.kernel
        for config in (
            FlowConfig(executor="process", jobs=2),
            FlowConfig(cache_db=str(tmp_path / "cache.db")),
            FlowConfig(fault_plan=FaultPlan()),
            FlowConfig(policy="race:ladder-peel,flat-ladder"),
        ):
            assert build_engine(config).partition_kernel() is None, config

    def test_sharing_changes_no_byte(self, monkeypatch):
        seen = []
        original = flow_module.partition_outputs

        def spy(*args, kernel=None, **kwargs):
            seen.append(kernel)
            return original(*args, kernel=kernel, **kwargs)

        monkeypatch.setattr(flow_module, "partition_outputs", spy)
        net = get_circuit("misex1").build()
        shared = write_blif(synthesize(net.copy(), FlowConfig(k=5)).network)
        assert seen and isinstance(seen[-1], BoundSetKernel)
        monkeypatch.setattr(Engine, "partition_kernel", lambda self: None)
        private = write_blif(synthesize(net.copy(), FlowConfig(k=5)).network)
        assert seen[-1] is None
        assert shared == private
