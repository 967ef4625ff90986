"""Bit-parallel z-spaces against the BDD z-space they replace up to the cutoff.

A :class:`BitZSpace` set is the packed truth table of the BDD
characteristic function over ``z_0 .. z_{p-1}`` (``to_truth_bits``), so
every operation is compared set for set, and every vertex choice vertex for
vertex.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.imodec import zspace as zspace_module
from repro.imodec.chi import chi_for_output
from repro.imodec.decomposer import decompose_multi
from repro.imodec.lmax import count_layers, lmax, pick_vertex
from repro.imodec.zspace import (
    BITSET_MAX_CLASSES,
    BitZSpace,
    ZSpace,
    make_zspace,
)
from repro.observe import Tracer


def as_bits(z: ZSpace, chi: int) -> int:
    """The BDD set ``chi`` as a bit set (bit v: the vertex v)."""
    return z.bdd.to_truth_bits(chi, z.levels)


@st.composite
def partial_partitions(draw, max_p=9):
    """``(p, blocks)``: local classes of p global classes, split into blocks.

    The shape the decomposer hands ``chi_for_output``: disjoint local
    classes (lists of global ids), grouped into the blocks of a partial
    partition.
    """
    p = draw(st.integers(1, max_p))
    order = draw(st.permutations(range(p)))
    cuts = sorted(draw(st.sets(st.integers(1, p - 1), max_size=p - 1))) if p > 1 else []
    bounds = [0, *cuts, p]
    classes = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    num_blocks = draw(st.integers(1, len(classes)))
    labels = draw(
        st.lists(
            st.integers(0, num_blocks - 1),
            min_size=len(classes), max_size=len(classes),
        )
    )
    blocks = [
        [cls for cls, label in zip(classes, labels) if label == b]
        for b in range(num_blocks)
    ]
    return p, [block for block in blocks if block]


class TestSets:
    @given(
        partial_partitions(),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_chi_for_output(self, shape, remaining, normalize, strict):
        p, blocks = shape
        z, b = ZSpace(p), BitZSpace(p)
        expected = chi_for_output(z, blocks, remaining, normalize, strict)
        got = chi_for_output(b, blocks, remaining, normalize, strict)
        assert got == as_bits(z, expected)
        assert b.count(got) == z.count(expected)
        for v in range(1 << p):
            vertex = {i: bool(v >> i & 1) for i in range(p)}
            assert b.contains(got, vertex) == z.contains(expected, vertex)

    @given(
        st.lists(
            st.tuples(partial_partitions(max_p=8), st.integers(1, 3), st.booleans()),
            min_size=1, max_size=5,
        ),
        st.integers(1, 8),
        st.sampled_from(["first", "balanced"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_count_layers_and_lmax(self, outputs, p, tie_break):
        z, b = ZSpace(p), BitZSpace(p)
        chis_z, chis_b = [], []
        for (_, blocks), remaining, strict in outputs:
            # Class ids beyond p are folded back into the z-space.
            blocks = [[[g % p for g in cls] for cls in block] for block in blocks]
            chis_z.append(chi_for_output(z, blocks, remaining, strict=strict))
            chis_b.append(chi_for_output(b, blocks, remaining, strict=strict))
        layers_z = count_layers(z, chis_z)
        layers_b = count_layers(b, chis_b)
        assert layers_b == [as_bits(z, layer) for layer in layers_z]
        got, expected = lmax(b, chis_b, tie_break), lmax(z, chis_z, tie_break)
        assert got.count == expected.count
        assert got.winners == as_bits(z, expected.winners)
        assert got.vertex == expected.vertex

    @given(st.integers(1, 8).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(1, (1 << (1 << p)) - 1))
    ))
    @settings(max_examples=200, deadline=None)
    def test_pick_vertex_on_any_set(self, case):
        p, bits = case
        z, b = ZSpace(p), BitZSpace(p)
        chi = z.bdd.from_truth_bits(bits, z.levels)
        for tie_break in ("first", "balanced"):
            vertex = pick_vertex(b, bits, tie_break)
            assert vertex == pick_vertex(z, chi, tie_break)
            assert set(vertex) == set(range(p))
            assert b.contains(bits, vertex)

    def test_pick_vertex_on_complemented_sets(self):
        # The p = 6 complemented winner set of test_lmax, and its partners.
        z, b = ZSpace(6), BitZSpace(6)
        sets = [
            z.bdd.apply_not(z.bdd.apply_or(z.bdd.var(0), z.bdd.var(2))),
            z.bdd.apply_xor(z.bdd.var(1), z.bdd.nvar(5)),
            z.bdd.apply_and(z.bdd.nvar(0), z.bdd.var(3)),
            1,  # TRUE
        ]
        for chi in sets:
            for tie_break in ("first", "balanced"):
                assert pick_vertex(b, as_bits(z, chi), tie_break) == pick_vertex(
                    z, chi, tie_break
                )

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            pick_vertex(BitZSpace(3), 0)

    def test_literals_and_counts(self):
        z, b = ZSpace(4), BitZSpace(4)
        for i in range(4):
            assert b.conj_pos([i]) == as_bits(z, z.bdd.var(i))
        assert b.conj_pos([0, 2]) == as_bits(z, z.conj_pos([0, 2]))
        assert b.conj_neg([1, 3]) == as_bits(z, z.conj_neg([1, 3]))
        assert b.not_(b.conj_pos([1])) == as_bits(z, z.not_(z.bdd.var(1)))
        assert b.count(b.true) == 16 and b.count(b.false) == 0


class TestCutoff:
    def test_make_zspace_switches_at_the_cutoff(self):
        assert isinstance(make_zspace(1), BitZSpace)
        assert isinstance(make_zspace(BITSET_MAX_CLASSES), BitZSpace)
        assert isinstance(make_zspace(BITSET_MAX_CLASSES + 1), ZSpace)
        with pytest.raises(ValueError):
            make_zspace(0)

    def test_cutoff_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(zspace_module, "BITSET_MAX_CLASSES", 0)
        assert isinstance(make_zspace(3), ZSpace)


def random_vector(data, max_vars=8):
    n = data.draw(st.integers(3, max_vars), label="n")
    m = data.draw(st.integers(1, 4), label="m")
    bound = data.draw(st.integers(2, min(4, n - 1)), label="bound")
    bdd = BDD()
    bdd.add_vars(n)
    levels = list(range(n))
    nodes = [
        TruthTable(n, data.draw(st.integers(0, (1 << (1 << n)) - 1))).to_bdd(bdd, levels)
        for _ in range(m)
    ]
    bs = sorted(data.draw(st.permutations(levels), label="order")[:bound])
    return bdd, nodes, bs, [lvl for lvl in levels if lvl not in bs]


def pool_shape(result):
    return (
        [(d.classes_on, d.users) for d in result.d_pool],
        result.assignments,
        result.codewidths,
    )


class TestDecomposeMulti:
    @pytest.mark.parametrize("tie_break", ["first", "balanced"])
    @given(data=st.data(), strict=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_same_decomposition_as_bdd_zspaces(self, tie_break, data, strict):
        bdd, nodes, bs, fs = random_vector(data)
        fast = decompose_multi(bdd, nodes, bs, fs, tie_break=tie_break, strict=strict)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zspace_module, "BITSET_MAX_CLASSES", 0)
            slow = decompose_multi(
                bdd, nodes, bs, fs, tie_break=tie_break, strict=strict
            )
        assert pool_shape(fast) == pool_shape(slow)
        assert fast.verify(bdd, nodes)
        assert slow.verify(bdd, nodes)

    def test_counters_name_the_representation(self, monkeypatch):
        bdd = BDD()
        bdd.add_vars(5)
        f = TruthTable.from_function(5, lambda a, b, c, d, e: (a ^ b ^ c) and (d or e))
        nodes = [f.to_bdd(bdd, list(range(5)))]

        def counters():
            tracer = Tracer()
            with observe.tracing(tracer):
                decompose_multi(bdd, nodes, [0, 1, 2], [3, 4])
            totals: Counter = Counter()
            spans = [tracer.root]
            while spans:
                span = spans.pop()
                totals.update(span.counters)
                spans.extend(span.children.values())
            return totals

        fast = counters()
        assert fast["bitset_zspaces"] == 1 and fast["zspace_nodes"] == 0
        monkeypatch.setattr(zspace_module, "BITSET_MAX_CLASSES", 0)
        slow = counters()
        assert slow["bitset_zspaces"] == 0 and slow["zspace_nodes"] > 0
        assert fast["chi_computed"] == slow["chi_computed"]
        assert fast["iterations"] == slow["iterations"]
