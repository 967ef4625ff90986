"""Packing LUT networks into Xilinx XC3000 CLBs.

The XC3000 Configurable Logic Block has five logic inputs and two outputs.
Its function generator implements either one function of up to five inputs
or two functions of up to four inputs each, as long as the two functions
together use at most five distinct input signals.

Packing is therefore a matching problem: build the compatibility graph over
the <=4-input LUTs (edge = combined support <= 5) and take a maximum
matching; every matched pair shares one CLB, everything else gets its own.
Edmonds' blossom algorithm (:mod:`repro.mapping.matching`) keeps this exact
rather than greedy: the CLB count is the LUT count minus the size of a
maximum matching, which is unique even where the pairs are not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.matching import maximum_matching
from repro.network.network import Network


@dataclass
class PackingResult:
    """CLB assignment of a LUT network."""

    pairs: list[tuple[str, str]]
    singles: list[str]

    @property
    def num_clbs(self) -> int:
        return len(self.pairs) + len(self.singles)


def pack_xc3000(network: Network, k: int = 5, pair_fanin: int = 4) -> PackingResult:
    """Pack a k-feasible LUT network into XC3000 CLBs.

    ``k`` is the single-function input limit (5 on the XC3000); ``pair_fanin``
    the per-function limit when two functions share a CLB (4).  Constant
    nodes are free (tied-off inputs) and consume no CLB.
    """
    lut_names = []
    pairable: list[str] = []
    masks: list[int] = []  # support of each pairable LUT as a bit set
    bit: dict[str, int] = {}
    for name, node in network.nodes.items():
        if not node.fanins:
            continue  # constants are tied off, no CLB needed
        if len(node.fanins) > k:
            raise ValueError(f"node {name!r} exceeds {k} inputs")
        lut_names.append(name)
        support = set(node.fanins)
        if len(support) <= pair_fanin:
            pairable.append(name)
            masks.append(
                sum(1 << bit.setdefault(s, len(bit)) for s in support)
            )

    adjacency: list[list[int]] = [[] for _ in pairable]
    for a, mask in enumerate(masks):
        for b in range(a + 1, len(masks)):
            if (mask | masks[b]).bit_count() <= k:
                adjacency[a].append(b)
                adjacency[b].append(a)

    mate = maximum_matching(adjacency)
    pairs = sorted(
        tuple(sorted((pairable[a], pairable[b])))
        for a, b in enumerate(mate)
        if b > a
    )
    paired = {n for edge in pairs for n in edge}
    singles = sorted(n for n in lut_names if n not in paired)
    return PackingResult(pairs=pairs, singles=singles)
