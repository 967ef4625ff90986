"""Unit tests for bound-set selection and the scoring kernel."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.partitioning import kernel as kernel_module
from repro.partitioning.kernel import TT_MAX_VARS, BoundSetKernel, tabulable
from repro.partitioning.variables import choose_bound_set, score_bound_set


def build(tables):
    bdd = BDD()
    n = tables[0].num_vars
    for i in range(n):
        bdd.add_var(f"x{i}")
    return bdd, [t.to_bdd(bdd, list(range(n))) for t in tables]


class TestScore:
    def test_score_components(self):
        # f = (x0 & x1) ^ x2: BS {x0,x1} -> 2 classes; BS {x0,x2} -> more
        t = TruthTable.from_function(3, lambda a, b, c: (a and b) != c)
        bdd, nodes = build([t])
        p_good = score_bound_set(bdd, nodes, [0, 1])[0]
        p_bad = score_bound_set(bdd, nodes, [0, 2])[0]
        assert p_good == 2
        assert p_bad > p_good

    def test_shared_scorer_prefers_common_variables(self):
        # f0 depends on x0,x1; f1 depends on x0,x2: x0 is common
        t0 = TruthTable.from_function(4, lambda a, b, c, d: a and b)
        t1 = TruthTable.from_function(4, lambda a, b, c, d: a or c)
        bdd, nodes = build([t0, t1])
        shared = score_bound_set(bdd, nodes, [0], scorer="shared")
        private = score_bound_set(bdd, nodes, [3], scorer="shared")
        assert shared[1] < private[1]  # more dependence = smaller key


class TestChooseBoundSet:
    def test_finds_natural_bound_set(self):
        # f = maj(x0,x1,x2) ^ (x3 & x4): {x0,x1,x2} has multiplicity 2... but
        # any 3-subset works differently; the chosen set must be among the best
        t = TruthTable.from_function(
            5, lambda a, b, c, d, e: (a + b + c >= 2) != (d and e)
        )
        bdd, nodes = build([t])
        bs, fs = choose_bound_set(bdd, nodes, [0, 1, 2, 3, 4], 3, strategy="exhaustive")
        assert sorted(bs + fs) == [0, 1, 2, 3, 4]
        assert score_bound_set(bdd, nodes, bs)[0] == 2
        assert bs == [0, 1, 2]

    def test_greedy_reasonable(self):
        t = TruthTable.from_function(
            5, lambda a, b, c, d, e: (a + b + c >= 2) != (d and e)
        )
        bdd, nodes = build([t])
        bs, _ = choose_bound_set(bdd, nodes, [0, 1, 2, 3, 4], 3, strategy="greedy")
        assert len(bs) == 3
        # greedy should also land on a multiplicity-2 bound set here
        assert score_bound_set(bdd, nodes, bs)[0] <= 4

    def test_random_strategy_is_valid_partition(self):
        rng = random.Random(5)
        t = TruthTable.random(5, rng)
        bdd, nodes = build([t])
        bs, fs = choose_bound_set(
            bdd, nodes, [0, 1, 2, 3, 4], 2, strategy="random", rng=rng
        )
        assert len(bs) == 2 and len(fs) == 3
        assert not set(bs) & set(fs)

    def test_multi_output_scoring(self):
        # two outputs with a shared natural bound set
        t1 = TruthTable.from_function(4, lambda a, b, c, d: (a ^ b) and c)
        t2 = TruthTable.from_function(4, lambda a, b, c, d: (a ^ b) or d)
        bdd, nodes = build([t1, t2])
        bs, _ = choose_bound_set(bdd, nodes, [0, 1, 2, 3], 2, strategy="exhaustive")
        assert bs == [0, 1]

    def test_bound_size_validation(self):
        t = TruthTable.constant(3, True)
        bdd, nodes = build([t])
        with pytest.raises(ValueError):
            choose_bound_set(bdd, nodes, [0, 1, 2], 3)
        with pytest.raises(ValueError):
            choose_bound_set(bdd, nodes, [0, 1, 2], 0)

    def test_unknown_strategy(self):
        t = TruthTable.constant(3, True)
        bdd, nodes = build([t])
        with pytest.raises(ValueError):
            choose_bound_set(bdd, nodes, [0, 1, 2], 1, strategy="nope")


# ---------------------------------------------------------------------------
# Differential test of the scoring kernel against the reference scorer
# ---------------------------------------------------------------------------

#: Variables of a manager that holds a wide output.
WIDE_LEVELS = 16


def build_vector(spec, order=None):
    """A fresh manager holding the vector ``spec`` describes.

    ``spec`` is ``(num_vars, outputs, wide)``: each output is a
    ``(levels, bits)`` truth table over the first ``num_vars`` levels, and
    ``wide`` (or None) is ``(top, levels, bits)``: the output
    ``ite(x_top, parity(x_0 .. x_top-1), table)``, whose support is the
    ``top + 1`` (15 or 16) levels ``0 .. top`` -- wider than
    ``TT_MAX_VARS``, so it takes the BDD route.  ``order`` builds the
    functions in another order, so the same function gets other node ids.
    """
    num_vars, outputs, wide = spec
    bdd = BDD()
    bdd.add_vars(WIDE_LEVELS if wide else num_vars)
    makers = [
        (lambda lv=levels, b=bits: bdd.from_truth_bits(b, lv))
        for levels, bits in outputs
    ]
    if wide:
        top, levels, bits = wide

        def make_wide():
            parity = 0
            for lvl in range(top):
                parity = bdd.apply_xor(parity, bdd.var(lvl))
            return bdd.ite(bdd.var(top), parity, bdd.from_truth_bits(bits, levels))

        makers.append(make_wide)
    nodes = [None] * len(makers)
    for i in order or range(len(makers)):
        nodes[i] = makers[i]()
    return bdd, nodes


@st.composite
def vectors(draw, max_vars=10, wide=True):
    """1-4 random outputs over <= 10 variables, maybe one of 15-16 variables."""
    num_vars = draw(st.integers(2, max_vars))

    def tables(max_size):
        return st.lists(
            st.sampled_from(range(num_vars)), min_size=1, max_size=max_size,
            unique=True,
        ).flatmap(
            lambda lv: st.tuples(
                st.just(lv), st.integers(0, (1 << (1 << len(lv))) - 1)
            )
        )

    outputs = draw(st.lists(tables(num_vars), min_size=1, max_size=4))
    spec_wide = None
    if wide and draw(st.booleans()):
        levels, bits = draw(tables(min(num_vars, 4)))
        spec_wide = (draw(st.sampled_from([14, 15])), levels, bits)
        outputs = outputs[:3]
    return num_vars, outputs, spec_wide


def scope(bdd, nodes):
    return sorted(set().union(*(bdd.support(f) for f in nodes)))


def reference_choice(bdd, nodes, levels, bound, strategy, scorer):
    """First-minimum scan over score_bound_set (the pre-kernel BDD path)."""
    if strategy == "exhaustive":
        best = None
        for combo in itertools.combinations(levels, bound):
            score = score_bound_set(bdd, nodes, combo, scorer)
            if best is None or score < best[0]:
                best = (score, list(combo))
        bs = best[1]
    else:
        bs, remaining = [], list(levels)
        while len(bs) < bound:
            best = None
            for var in remaining:
                score = score_bound_set(bdd, nodes, bs + [var], scorer)
                if best is None or score < best[0]:
                    best = (score, var)
            bs.append(best[1])
            remaining.remove(best[1])
    bs = sorted(bs)
    return bs, [lvl for lvl in levels if lvl not in bs]


def bound_for(data, levels):
    assume(len(levels) >= 2)
    return data.draw(st.integers(1, min(3, len(levels) - 1)), label="bound")


class TestKernelDifferential:
    @given(vectors(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_triple_matches_reference(self, spec, data):
        bdd, nodes = build_vector(spec)
        levels = scope(bdd, nodes)
        bound = bound_for(data, levels)
        combos = list(itertools.combinations(levels, bound))
        expected = {
            frozenset(combo): score_bound_set(bdd, nodes, combo, "compact")
            for combo in combos
        }
        rng = random.Random(len(levels))
        # Every candidate in one call (no shared levels), one per call in a
        # shuffled order, and greedy steps (candidates sharing a prefix);
        # each with fresh kernels and with one kernel serving them all.
        calls = [combos]
        for combo in combos:
            shuffled = list(combo)
            rng.shuffle(shuffled)
            calls.append([shuffled])
        for prefix in itertools.combinations(levels, bound - 1):
            calls.append([[*prefix, v] for v in levels if v not in prefix])
        shared = BoundSetKernel()
        for call in calls:
            for kernel in (BoundSetKernel(), shared):
                for combo, (p, classes, dependence) in zip(
                    call, kernel.triples(bdd, nodes, call)
                ):
                    assert expected[frozenset(combo)] == (p, classes, -dependence)

    @pytest.mark.parametrize("scorer", ["compact", "shared"])
    @given(spec=vectors(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_choice_matches_reference_scan(self, scorer, spec, data):
        bdd, nodes = build_vector(spec)
        levels = scope(bdd, nodes)
        bound = bound_for(data, levels)
        for strategy in ("exhaustive", "greedy"):
            expected = reference_choice(bdd, nodes, levels, bound, strategy, scorer)
            got = choose_bound_set(
                bdd, nodes, levels, bound, strategy=strategy, scorer=scorer
            )
            assert got == expected, strategy

    @given(vectors(), vectors(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_memo_never_changes_a_result(self, spec_a, spec_b, data):
        """Scorer order, repeats, interleaved vectors and a new manager."""
        bdd, nodes = build_vector(spec_a)
        levels = scope(bdd, nodes)
        bound = bound_for(data, levels)
        other = nodes[::-1] + nodes[:1]
        kernel = BoundSetKernel()

        def check(b, vec, strategy, scorer):
            lv = scope(b, vec)
            bnd = min(bound, len(lv) - 1)
            if bnd < 1:
                return
            got = choose_bound_set(
                b, vec, lv, bnd, strategy=strategy, scorer=scorer, kernel=kernel
            )
            assert got == choose_bound_set(
                b, vec, lv, bnd, strategy=strategy, scorer=scorer
            )

        for strategy in ("exhaustive", "greedy"):
            check(bdd, nodes, strategy, "compact")
            check(bdd, nodes, strategy, "shared")
            check(bdd, other, strategy, "compact")
            check(bdd, nodes, strategy, "compact")
            check(bdd, other, strategy, "shared")
        # The same functions built in reverse order: node ids now name
        # other functions, and the kernel must not serve the old entries.
        fresh, fresh_nodes = build_vector(spec_a, order=range(len(nodes))[::-1])
        check(fresh, fresh_nodes, "exhaustive", "compact")
        bdd_b, nodes_b = build_vector(spec_b)
        check(bdd_b, nodes_b, "greedy", "shared")
        check(bdd, nodes, "greedy", "shared")

    @given(vectors(max_vars=8, wide=False), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_memo_stays_within_its_bound(self, spec, max_entries):
        bdd, nodes = build_vector(spec)
        levels = scope(bdd, nodes)
        assume(len(levels) >= 2)
        kernel = BoundSetKernel()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "MAX_ENTRIES", max_entries)
            for bound in range(1, min(4, len(levels))):
                for scorer in ("compact", "shared"):
                    got = choose_bound_set(
                        bdd, nodes, levels, bound, strategy="exhaustive",
                        scorer=scorer, kernel=kernel,
                    )
                    assert len(kernel) <= max_entries
                    assert got == reference_choice(
                        bdd, nodes, levels, bound, "exhaustive", scorer
                    )

    def test_wide_output_takes_the_bdd_route(self):
        spec = (3, [([0, 1, 2], 0x96)], (15, [0, 2], 0b0110))
        bdd, nodes = build_vector(spec)
        assert len(bdd.support(nodes[1])) == 16 > TT_MAX_VARS
        assert not tabulable(bdd, nodes)

    def test_another_manager_empties_the_memo(self):
        spec = (5, [([0, 1, 2, 3], 0x6996), ([1, 2, 4], 0x96)], None)
        kernel = BoundSetKernel()
        bdd, nodes = build_vector(spec)
        choose_bound_set(bdd, nodes, list(range(5)), 3, kernel=kernel)
        other, other_nodes = build_vector(spec, order=[1, 0])
        choose_bound_set(other, other_nodes, list(range(5)), 2, kernel=kernel)
        fresh = BoundSetKernel()
        choose_bound_set(other, other_nodes, list(range(5)), 2, kernel=fresh)
        assert len(kernel) == len(fresh) > 0

    def test_memo_is_empty_once_its_scope_ends(self):
        bdd, nodes = build_vector(
            (5, [([0, 1, 2, 3], 0x6996), ([1, 2, 4], 0x96), ([0, 3, 4], 0xE8)], None)
        )
        with BoundSetKernel() as kernel:
            choose_bound_set(bdd, nodes, list(range(5)), 3, kernel=kernel)
            assert len(kernel) > 0
        assert len(kernel) == 0

    def test_partition_outputs_empties_its_kernel(self, monkeypatch):
        import repro.partitioning.outputs as outputs

        seen = []

        def spy(*args, kernel=None, **kwargs):
            seen.append(kernel)
            return choose_bound_set(*args, kernel=kernel, **kwargs)

        monkeypatch.setattr(outputs, "choose_bound_set", spy)
        bdd, nodes = build_vector(
            (6, [([0, 1, 2, 3, 4], 0x6996_9669), ([1, 2, 3, 5], 0x8EE8),
                 ([0, 2, 4, 5], 0x1EE1)], None)
        )
        outputs.partition_outputs(bdd, nodes, list(range(6)), 3)
        assert seen and all(k is seen[0] for k in seen)
        assert len(seen[0]) == 0

    def test_unknown_scorer_rejected(self):
        bdd, nodes = build_vector((4, [([0, 1, 2, 3], 0x6996)], None))
        with pytest.raises(ValueError, match="scorer"):
            choose_bound_set(bdd, nodes, [0, 1, 2, 3], 2, scorer="nope")
