"""Maximum-cardinality matching in general graphs (Edmonds' blossom algorithm).

XC3000 packing (:mod:`repro.mapping.xc3000`) pairs LUTs along the edges of a
compatibility graph that need not be bipartite, so an exact maximum
matching needs Edmonds' blossom contraction.  This is the classical
O(V^3) formulation: a greedy matching to start, then one breadth-first
search for an augmenting path from every vertex still exposed, contracting
each odd cycle (blossom) the search closes into its base vertex.  A vertex
from which no augmenting path starts never gains one after other
augmentations, so one search per vertex suffices.

Vertices are visited in index order and neighbours in adjacency order, so
the matching is a function of the adjacency lists alone.
"""

from __future__ import annotations

from typing import Sequence


def maximum_matching(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Mates of a maximum-cardinality matching of an undirected graph.

    ``adjacency[v]`` lists the neighbours of vertex ``v``; the lists must be
    symmetric and free of self-loops.  Returns ``mate`` with ``mate[v]``
    the vertex matched to ``v``, or -1 when ``v`` stays unmatched.
    """
    mate = [-1] * len(adjacency)
    for v, neighbours in enumerate(adjacency):
        if mate[v] < 0:
            for w in neighbours:
                if mate[w] < 0:
                    mate[v], mate[w] = w, v
                    break
    for root in range(len(adjacency)):
        if mate[root] < 0:
            _augment(adjacency, mate, root)
    return mate


def _augment(adjacency: Sequence[Sequence[int]], mate: list[int], root: int) -> None:
    """Grow an alternating tree from exposed ``root``; flip the first
    augmenting path it finds in ``mate``, if there is one.

    Outer (even) vertices are the root and the mates of inner vertices; an
    inner vertex ``w`` hangs off its outer neighbour ``parent[w]``.  ``base``
    maps every vertex to the base of the contracted blossom holding it.
    """
    n = len(adjacency)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def common_base(a: int, b: int) -> int:
        """The base where the tree paths of outer ``a`` and ``b`` meet."""
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] < 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stop: int, child: int, blossom: set[int]) -> None:
        """Walk from ``v`` up to base ``stop``, collecting the bases on the
        way and re-pointing inner vertices back along the odd cycle."""
        while base[v] != stop:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # the loop sees vertices appended while it runs
        for w in adjacency[v]:
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] >= 0 and parent[mate[w]] >= 0):
                # Both ends are outer: the edge closes a blossom.
                stop = common_base(v, w)
                blossom: set[int] = set()
                mark_path(v, stop, w, blossom)
                mark_path(w, stop, v, blossom)
                for u in range(n):
                    if base[u] in blossom:
                        base[u] = stop
                        if not outer[u]:
                            outer[u] = True
                            queue.append(u)
            elif parent[w] < 0:
                parent[w] = v
                if mate[w] < 0:
                    while w >= 0:  # flip the path back to the root
                        v = parent[w]
                        nxt = mate[v]
                        mate[v], mate[w] = w, v
                        w = nxt
                    return
                outer[mate[w]] = True
                queue.append(mate[w])
