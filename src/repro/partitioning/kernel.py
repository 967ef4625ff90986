"""The bound-set scoring kernel: one exact, memoized scorer.

Bound-set search (:func:`repro.partitioning.variables.choose_bound_set`)
scores every candidate bound set ``B`` of an output vector
``f_1 .. f_m`` by the triple

    ``(p, sum_k l_k, dependence)``

where ``l_k`` is the number of local compatibility classes of ``f_k``
(Definition 1), ``p`` the number of global classes -- the blocks of the
product of the local partitions, which lower-bounds the number of
decomposition functions (Property 1) -- and ``dependence`` the number of
(output, bound variable) pairs with the variable in the output's support.
Both orderings of :func:`~repro.partitioning.variables.score_bound_set`
(``compact`` and ``shared``) are read off the same triple.

How a triple is computed:

- Only the bound variables an output depends on can split its classes
  (the others replicate cofactors).  For output ``k`` and
  ``D = sorted(B & supp f_k)`` the kernel builds a dense *class-id vector*
  over the ``2^|D|`` vertices of ``D``: entry ``x`` (bit ``j`` of ``x`` is
  the value of ``D[j]``, the ``cofactor_map`` convention) is the id of the
  cofactor at vertex ``x``.
- The route is chosen per output.  An output whose own support fits
  :data:`TT_MAX_VARS` variables is cofactored as a packed truth table
  (:func:`vertex_cofactor_keys`: one shift and two ANDs per split) and
  its classes are told apart by table equality; a wider output is
  cofactored as BDD nodes (``cofactor_map``) and its classes are told apart
  by node equality.  Table equality and node equality both coincide with
  equality of the cofactor functions (ROBDD canonicity), so the counts are
  exact -- no hash ever stands in for equality.
- ``l_k`` is the number of distinct ids; ``p`` is the number of distinct id
  tuples once every involved output's vector is gathered onto the vertices
  of the union of the ``D``.
- Gathered onto the vertices of ``B`` itself, the vectors are the outputs'
  local partitions (:meth:`BoundSetKernel.local_partitions`), which trial
  decompositions read instead of cofactoring again.

The memo:

- Class-id vectors are keyed by (output edge, ``D``) and reused across
  candidates, calls and both scorers.  Triples are keyed by (vector,
  ``B`` as a set): a triple does not depend on the order of ``B``'s
  variables.
- A kernel belongs to one caller-created scope (one per
  ``partition_outputs`` call, one per decomposition policy instance); it
  is never process-global, so two runs in one process do the same work.
- Node ids mean something only inside their manager, so a kernel serves
  one manager at a time: handing it another manager empties it first.
- It holds at most :data:`MAX_ENTRIES` entries; past that the oldest half
  of every table is dropped, as the BDD operation cache does.
"""

from __future__ import annotations

import weakref
from itertools import islice
from operator import itemgetter
from typing import Sequence

from repro.bdd.manager import BDD, row_mask
from repro.decompose.compat import cofactor_map
from repro.decompose.partitions import Partition

#: Largest per-function support eligible for truth-table cofactoring.
#: 2^14 rows = 2 KiB per packed table; beyond that, BDD cofactoring wins.
TT_MAX_VARS = 14

#: Bound on the entries a kernel holds (class-id vectors, triples, truth
#: tables and gather maps together).
MAX_ENTRIES = 1 << 15

#: ``(p, total local classes, dependence)`` of one candidate bound set.
Triple = tuple[int, int, int]

#: A class-id vector: entry ``x`` is the class of the cofactor at vertex ``x``.
Ids = bytes | tuple[int, ...]


def vertex_cofactor_keys(table: int, n: int, positions: Sequence[int]) -> list[int]:
    """Cofactor table of every vertex of a set of bound variables.

    ``table`` is packed LSB-first over ``n`` variables; ``positions`` are the
    bit positions (within the row index) of the bound variables.  Entry ``x``
    (bit ``j`` of ``x`` = value of ``positions[j]``, the ``cofactor_map``
    vertex convention) is the truth table of the cofactor at vertex ``x``,
    its values moved onto the rows where every bound position is 0 and the
    other rows cleared, so that two entries are equal iff the cofactor
    *functions* are equal.
    """
    maps = [table]
    for pos in positions:
        keep = ~row_mask(n, pos)
        shift = 1 << pos
        maps = [t & keep for t in maps] + [(t >> shift) & keep for t in maps]
    return maps


def tabulable(bdd: BDD, f_nodes: Sequence[int]) -> bool:
    """True when every output of the vector takes the truth-table route."""
    return all(len(bdd.support(f)) <= TT_MAX_VARS for f in f_nodes)


def _class_ids(keys: Sequence[int]) -> tuple[Ids, int]:
    """Keys re-labelled ``0, 1, ..`` in first-occurrence order, and the
    number of distinct keys.

    Up to 256 vertices the ids are packed into ``bytes``: one byte per
    vertex instead of eight.
    """
    ids: dict[int, int] = {}
    labels = [ids.setdefault(key, len(ids)) for key in keys]
    return (bytes(labels) if len(labels) <= 256 else tuple(labels)), len(ids)


def _levels(mask: int) -> list[int]:
    """The levels whose bit is set in ``mask``, ascending."""
    levels = []
    while mask:
        low = mask & -mask
        levels.append(low.bit_length() - 1)
        mask ^= low
    return levels


class BoundSetKernel:
    """Exact, memoized scorer of candidate bound sets (see module docstring).

    Create one per scope and pass it to every
    :func:`~repro.partitioning.variables.choose_bound_set` call of that
    scope; use it as a context manager to empty it when the scope ends.
    Sets of levels are held as bit masks (bit ``l`` set for level ``l``).
    """

    def __init__(self) -> None:
        self._manager: weakref.ref | None = None
        # output edge -> (packed table, level -> bit position), or None for
        # an output too wide to tabulate
        self._tables: dict[int, tuple[int, dict[int, int]] | None] = {}
        # (output edge, mask of D) -> (class-id vector over D's vertices,
        # number of classes)
        self._classes: dict[tuple[int, int], tuple[Ids, int]] = {}
        # (vector id, mask of B) -> triple
        self._triples: dict[tuple[int, int], Triple] = {}
        # output vector -> vector id; ids are never reused, so a triple can
        # only ever be found under the vector that produced it
        self._vectors: dict[tuple[int, ...], int] = {}
        self._next_vector = 0
        # (union size, bit positions of D in the union) -> gather
        self._gathers: dict[tuple[int, tuple[int, ...]], itemgetter] = {}
        self._size = 0  # entries of all five tables together

    def __len__(self) -> int:
        """Number of memo entries held."""
        return self._size

    def __enter__(self) -> "BoundSetKernel":
        return self

    def __exit__(self, *exc: object) -> None:
        self.clear()

    def clear(self) -> None:
        """Drop every memo entry (the manager binding goes too)."""
        self._manager = None
        for table in self._memos():
            table.clear()
        self._size = 0

    def _memos(self) -> tuple[dict, ...]:
        return (
            self._tables, self._classes, self._triples, self._vectors,
            self._gathers,
        )

    def _store(self, table: dict, key: object, value: object) -> None:
        """Insert a new entry, first dropping the oldest half of every table
        when the memo is full."""
        if self._size >= MAX_ENTRIES:
            for memo in self._memos():
                for old in list(islice(iter(memo), (len(memo) + 1) // 2)):
                    del memo[old]
            self._size = sum(len(memo) for memo in self._memos())
        table[key] = value
        self._size += 1

    def _bind(self, bdd: BDD) -> None:
        """Serve ``bdd``: a different manager than last time empties the memo."""
        if self._manager is None or self._manager() is not bdd:
            self.clear()
            self._manager = weakref.ref(bdd)

    def _table(self, bdd: BDD, f: int) -> tuple[int, dict[int, int]] | None:
        """Packed table of ``f`` over its own sorted support (None: too wide)."""
        if f in self._tables:
            return self._tables[f]
        support = sorted(bdd.support(f))
        entry = None
        if len(support) <= TT_MAX_VARS:
            entry = (
                bdd.to_truth_bits(f, support),
                {lvl: pos for pos, lvl in enumerate(support)},
            )
        self._store(self._tables, f, entry)
        return entry

    def _class_vector(self, bdd: BDD, f: int, dep: int) -> tuple[Ids, int]:
        """Class-id vector of ``f`` over the vertices of ``D`` (mask ``dep``),
        and its number of classes."""
        key = (f, dep)
        entry = self._classes.get(key)
        if entry is not None:
            return entry
        levels = _levels(dep)
        tabulated = self._table(bdd, f)
        if tabulated is not None:
            table, pos_of = tabulated
            keys = vertex_cofactor_keys(
                table, len(pos_of), [pos_of[lvl] for lvl in levels]
            )
        else:
            keys = cofactor_map(bdd, f, levels)
        entry = _class_ids(keys)
        self._store(self._classes, key, entry)
        return entry

    def _gather(self, size: int, positions: tuple[int, ...]) -> itemgetter:
        """Map from a vertex space of ``size`` bits to a sub-space.

        Vertex ``u`` maps to the sub-space vertex whose bit ``j`` is bit
        ``positions[j]`` of ``u``.
        """
        key = (size, positions)
        gather = self._gathers.get(key)
        if gather is None:
            index = [
                sum(((u >> pos) & 1) << j for j, pos in enumerate(positions))
                for u in range(1 << size)
            ]
            gather = itemgetter(*index)
            self._store(self._gathers, key, gather)
        return gather

    def triples(
        self,
        bdd: BDD,
        f_nodes: Sequence[int],
        combos: Sequence[Sequence[int]],
    ) -> list[Triple]:
        """The triple of every candidate bound set in ``combos``, in order."""
        self._bind(bdd)
        vector = tuple(f_nodes)
        vid = self._vectors.get(vector)
        if vid is None:
            vid = self._next_vector
            self._next_vector += 1
            self._store(self._vectors, vector, vid)
        # support masks, and level -> outputs depending on it
        supports: list[int] = []
        touched_by: dict[int, list[int]] = {}
        for i, f in enumerate(vector):
            mask = 0
            for lvl in bdd.support(f):
                mask |= 1 << lvl
                touched_by.setdefault(lvl, []).append(i)
            supports.append(mask)
        memo = self._triples
        out = []
        for combo in combos:
            bmask = 0
            for lvl in combo:
                bmask |= 1 << lvl
            key = (vid, bmask)
            triple = memo.get(key)
            if triple is None:
                touched: set[int] = set()
                for lvl in combo:
                    touched.update(touched_by.get(lvl, ()))
                triple = self._score(bdd, vector, supports, touched, bmask)
                self._store(memo, key, triple)
            out.append(triple)
        return out

    def score(self, bdd: BDD, f_nodes: Sequence[int], combo: Sequence[int]) -> Triple:
        """The triple of one candidate bound set."""
        return self.triples(bdd, f_nodes, [combo])[0]

    def local_partitions(
        self, bdd: BDD, f_nodes: Sequence[int], bs_levels: Sequence[int]
    ) -> list[Partition]:
        """Local compatibility partition of every output over the vertices of
        ``bs_levels`` (bit ``j`` of a vertex is the value of ``bs_levels[j]``).

        Each output's memoized class-id vector is gathered onto the bound
        set's vertices; :class:`Partition` normalizes labels, so the result
        equals :func:`~repro.decompose.compat.local_partition`'s exactly.
        """
        self._bind(bdd)
        position = {lvl: j for j, lvl in enumerate(bs_levels)}
        parts = []
        for f in f_nodes:
            dep = 0
            for lvl in bdd.support(f):
                if lvl in position:
                    dep |= 1 << lvl
            vec, _ = self._class_vector(bdd, f, dep)
            gather = self._gather(
                len(bs_levels), tuple(position[lvl] for lvl in _levels(dep))
            )
            parts.append(Partition(gather(vec)))
        return parts

    def _score(
        self,
        bdd: BDD,
        vector: tuple[int, ...],
        supports: list[int],
        touched: set[int],
        bmask: int,
    ) -> Triple:
        """The triple of candidate ``bmask``, which ``touched`` outputs depend on."""
        classes = len(vector) - len(touched)
        dependence = union = 0
        involved = []
        for i in touched:
            dep = bmask & supports[i]
            vec, count = self._class_vector(bdd, vector[i], dep)
            classes += count
            dependence += dep.bit_count()
            union |= dep
            involved.append((vec, dep))
        if not involved:
            return 1, classes, dependence
        if len(involved) == 1:
            return count, classes, dependence
        levels = _levels(union)
        columns = [
            vec if dep == union
            else self._gather(
                len(levels),
                tuple(j for j, lvl in enumerate(levels) if dep >> lvl & 1),
            )(vec)
            for vec, dep in involved
        ]
        return len(set(zip(*columns))), classes, dependence
