"""Edmonds' maximum matching and the XC3000 packing built on it.

Both are checked against a brute-force maximum matching: the matching
must be valid (mates symmetric and adjacent) and as large as the best one,
and a packed LUT network must need exactly ``LUTs - |maximum matching|``
CLBs.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc.sop import Sop
from repro.mapping.matching import maximum_matching
from repro.mapping.xc3000 import pack_xc3000
from repro.network.network import Network


def brute_force_size(n: int, edges) -> int:
    """Size of a maximum matching, by exhaustive search over vertex sets."""
    neighbours = [set() for _ in range(n)]
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)

    @lru_cache(maxsize=None)
    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        size = best(rest)  # v stays unmatched
        for w in neighbours[v]:
            if rest >> w & 1:
                size = max(size, 1 + best(rest & ~(1 << w)))
        return size

    return best((1 << n) - 1)


def adjacency_of(n: int, edges) -> list[list[int]]:
    """Adjacency lists in edge order (so the order itself varies)."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def matching_size(mate: list[int]) -> int:
    return sum(1 for v, w in enumerate(mate) if w > v)


@st.composite
def graphs(draw, max_vertices: int = 12):
    n = draw(st.integers(0, max_vertices))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return n, [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]


class TestMaximumMatching:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_valid_and_maximum(self, graph):
        n, edges = graph
        adjacency = adjacency_of(n, edges)
        mate = maximum_matching(adjacency)
        assert len(mate) == n
        for v, w in enumerate(mate):
            if w >= 0:
                assert mate[w] == v
                assert w in adjacency[v]
        assert matching_size(mate) == brute_force_size(n, edges)

    def test_blossom_is_contracted(self):
        # Triangle 0-2-3 with stem 1-0 to the root 4 and tail 2-5.  The
        # greedy start matches 0-1 and 2-3.  The search from 4 reaches 2
        # as an inner vertex first; only contracting the triangle makes 2
        # outer, so the augmenting path 4-1-0-3-2-5 is found.
        edges = [(0, 1), (0, 2), (0, 3), (2, 3), (4, 1), (2, 5)]
        mate = maximum_matching(adjacency_of(6, edges))
        assert mate == [3, 4, 5, 0, 1, 2]

    def test_empty_and_isolated(self):
        assert maximum_matching([]) == []
        assert maximum_matching([[], []]) == [-1, -1]


INPUTS = [f"i{j}" for j in range(7)]


@st.composite
def lut_networks(draw):
    """Random LUT networks of up to 12 LUTs over 7 primary inputs."""
    net = Network("luts")
    for name in INPUTS:
        net.add_input(name)
    names = []
    for i in range(draw(st.integers(0, 12))):
        name = f"n{i}"
        if draw(st.integers(0, 9)) == 0:
            net.add_constant(name, draw(st.booleans()))
        else:
            fanins = draw(
                st.lists(st.sampled_from(INPUTS), min_size=1, max_size=5, unique=True)
            )
            net.add_node(name, fanins, Sop.from_strings(len(fanins), ["1" * len(fanins)]))
        names.append(name)
    net.set_outputs(names)
    return net


class TestPacking:
    @settings(max_examples=150, deadline=None)
    @given(lut_networks())
    def test_clbs_are_luts_minus_a_maximum_matching(self, net):
        luts = [n for n, node in net.nodes.items() if node.fanins]
        pairable = [n for n in luts if len(net.nodes[n].fanins) <= 4]
        edges = [
            (a, b)
            for a in range(len(pairable))
            for b in range(a + 1, len(pairable))
            if len(set(net.nodes[pairable[a]].fanins) | set(net.nodes[pairable[b]].fanins)) <= 5
        ]
        packing = pack_xc3000(net)
        assert packing.num_clbs == len(luts) - brute_force_size(len(pairable), edges)
        for a, b in packing.pairs:
            assert len(set(net.nodes[a].fanins) | set(net.nodes[b].fanins)) <= 5
        placed = [n for pair in packing.pairs for n in pair] + packing.singles
        assert sorted(placed) == sorted(luts)
        assert pack_xc3000(net) == packing
