"""Differential tests of the gain-bounded trial decompositions.

The unbounded calls are the reference: a bound may only turn a result that
cannot matter into None, never change a result that is returned.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDD
from repro.decompose.compat import local_partition
from repro.imodec.decomposer import decompose_multi
from repro.partitioning import kernel as kernel_module
from repro.partitioning.kernel import BoundSetKernel
from repro.partitioning.outputs import TrialResult, solo_codewidth, trial_gain
from repro.partitioning.variables import choose_bound_set


@st.composite
def vectors(draw, min_outputs=1):
    """``min_outputs`` to 4 outputs over 3 to 8 inputs: tables over most of
    the inputs (dense random ones among them), some combined with an
    earlier output so that the vector shares decomposition functions."""
    n = draw(st.integers(3, 8))

    def bits(num_vars):
        rows = 1 << num_vars
        return st.one_of(
            st.integers(0, (1 << rows) - 1),
            st.integers(0, 1 << 32).map(lambda seed: Random(seed).getrandbits(rows)),
        )

    table = st.lists(
        st.sampled_from(range(n)), min_size=max(2, n // 2), max_size=n, unique=True
    ).flatmap(lambda lv: st.tuples(st.just(lv), bits(len(lv))))
    outputs = draw(st.lists(table, min_size=min_outputs, max_size=4))
    derived = [
        draw(st.one_of(st.none(), st.tuples(
            st.integers(0, i - 1), st.sampled_from(range(n)),
            st.sampled_from(["xor", "and"]),
        )))
        for i in range(1, len(outputs))
    ]
    return n, outputs, derived


def build(spec):
    n, outputs, derived = spec
    bdd = BDD()
    bdd.add_vars(n)
    nodes = [bdd.from_truth_bits(bits, levels) for levels, bits in outputs]
    for i, how in enumerate(derived, start=1):
        if how is not None:
            j, var, op = how
            apply = bdd.apply_xor if op == "xor" else bdd.apply_and
            nodes[i] = apply(nodes[j], apply(nodes[i], bdd.var(var)))
    return bdd, nodes


def split(data, n, max_bound=4):
    """A bound set in random order (at most ``max_bound`` variables) and the
    free set."""
    order = data.draw(st.permutations(range(n)), label="order")
    size = data.draw(st.integers(1, min(max_bound, n - 1)), label="bound size")
    return list(order[:size]), sorted(order[size:])


def shape(result):
    return (
        [(d.classes_on, d.table, d.users) for d in result.d_pool],
        result.assignments,
        result.codewidths,
        result.local_partitions,
        result.global_part,
    )


class TestPoolBound:
    @given(vectors(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_none_exactly_when_the_unbounded_pool_reaches_the_bound(self, spec, data):
        bdd, nodes = build(spec)
        bs, fs = split(data, spec[0])
        reference = decompose_multi(bdd, nodes, bs, fs)
        q = reference.num_functions
        limit = data.draw(st.integers(0, q + 2), label="max_functions")
        kernel = BoundSetKernel()
        for partitions in (None, kernel.local_partitions(bdd, nodes, bs)):
            before = bdd.num_nodes
            got = decompose_multi(
                bdd, nodes, bs, fs, build_g=False,
                local_partitions=partitions, max_functions=limit,
            )
            if partitions is not None:
                # A trial adds nothing to the caller's manager.
                assert bdd.num_nodes == before
            if q >= limit:
                assert got is None
            else:
                assert got is not None
                assert shape(got) == shape(reference)
                assert all(d.node is None for d in got.d_pool)


def unbounded_trial(bdd, nodes, levels, bound, max_globals):
    """Both scorers' decompositions run in full; the first best gain is kept."""
    usable = [lvl for lvl in levels if any(lvl in bdd.support(f) for f in nodes)]
    if len(usable) <= bound:
        return None
    solo = [solo_codewidth(bdd, f, levels, bound, BoundSetKernel()) for f in nodes]
    if None in solo:
        return None
    best = None
    for scorer in ("compact", "shared"):
        bs, fs = choose_bound_set(bdd, nodes, usable, bound, scorer=scorer)
        result = decompose_multi(bdd, nodes, bs, fs, build_g=False)
        if max_globals is not None and result.num_global_classes > max_globals:
            continue
        gain = sum(solo) - result.num_functions
        if best is None or gain > best.gain:
            best = TrialResult(gain=gain, num_globals=result.num_global_classes)
    return best


class TestGainBound:
    @given(vectors(min_outputs=2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_none_exactly_when_the_unbounded_gain_does_not_beat_min_gain(
        self, spec, data
    ):
        bdd, nodes = build(spec)
        n = spec[0]
        bound = data.draw(st.integers(1, min(4, n - 1)), label="bound size")
        max_globals = data.draw(st.sampled_from([None, 4, 64]), label="max_globals")
        levels = list(range(n))
        reference = unbounded_trial(bdd, nodes, levels, bound, max_globals)
        assert trial_gain(bdd, nodes, levels, bound, max_globals) == reference
        centre = 0 if reference is None else reference.gain
        min_gain = data.draw(st.integers(centre - 2, centre + 1), label="min_gain")
        got = trial_gain(bdd, nodes, levels, bound, max_globals, min_gain=min_gain)
        if reference is None or reference.gain <= min_gain:
            assert got is None
        else:
            assert got == reference

    def test_a_worse_second_scorer_keeps_the_first_result(self):
        # The scorers pick different bound sets, and the second ("shared")
        # decomposition needs one function more than the first.
        bdd, nodes = build((4, [([1, 2, 3], 225), ([0, 1, 2], 98)], [None]))
        levels = [0, 1, 2, 3]
        reference = unbounded_trial(bdd, nodes, levels, 2, None)
        assert reference == TrialResult(gain=1, num_globals=4)
        assert trial_gain(bdd, nodes, levels, 2) == reference
        for min_gain in (-1, 0):
            assert trial_gain(bdd, nodes, levels, 2, min_gain=min_gain) == reference
        assert trial_gain(bdd, nodes, levels, 2, min_gain=1) is None


class TestKernelPartitions:
    @pytest.mark.parametrize("route", ["truth-table", "bdd"])
    @given(spec=vectors(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equal_to_local_partition(self, route, spec, data):
        bdd, nodes = build(spec)
        bs, _ = split(data, spec[0], max_bound=5)
        with pytest.MonkeyPatch.context() as mp:
            if route == "bdd":
                mp.setattr(kernel_module, "TT_MAX_VARS", 0)
            kernel = BoundSetKernel()
            # once on a fresh memo, once on one a bound-set search filled
            got = kernel.local_partitions(bdd, nodes, bs)
            choose_bound_set(bdd, nodes, sorted(set(bs) | {0, 1}), 1, kernel=kernel)
            again = kernel.local_partitions(bdd, nodes, bs)
        expected = [local_partition(bdd, f, bs) for f in nodes]
        assert got == expected
        assert again == expected
        assert len(kernel) == sum(len(memo) for memo in kernel._memos())
