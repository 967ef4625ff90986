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

An exhaustive search is answered without class-id vectors
(:meth:`BoundSetKernel.column_search`) when every output's support lies
inside the candidate levels, those fit :data:`TT_MAX_VARS`, and at least
:data:`COLUMN_MIN_FREE` of them stay free:

- the outputs' truth tables over the candidate levels are stacked as the
  blocks of one packed int, and delta swaps move a candidate's bound
  variables to the top row-index bits of every block, so each block's
  ``2^|B|`` cofactor columns are runs of whole bytes read by one
  ``to_bytes`` call;
- ``l_k`` is the number of distinct columns of block ``k``, ``p`` the
  number of distinct column tuples across blocks, and ``dependence`` the
  sum, over the bound levels, of the outputs depending on each: the same
  triple as the class-id vectors give (THEORY.md section 7);
- the candidates' triples are computed once per (vector, candidate levels,
  bound size), and both scorers read their first minimum from that table;
  one output that depends on every candidate level has ``l >= 2`` on every
  candidate, so its scan stops at the first ``l = 2``.

The memo:

- Class-id vectors are keyed by (output edge, ``D``) and reused across
  candidates, calls and both scorers.  Triples are keyed by (vector,
  ``B`` as a set): a triple does not depend on the order of ``B``'s
  variables.
- A vector is keyed by its sorted roots, with its support masks: a
  triple does not depend on the order of the outputs either, so a search
  repeating another with the outputs reordered reads the same entries.
- Each search's chosen bound set is kept under (vector, candidate levels,
  bound size, strategy, scorer), so a repeated search is one lookup
  (:meth:`BoundSetKernel.winner`).
- A kernel belongs to one caller-created scope: one per
  ``partition_outputs`` call, or one per decomposition policy instance,
  which a serial run's ``partition_outputs`` borrows when the policy will
  decompose the groups on the same manager.  It is never process-global,
  so two runs in one process do the same work.
- Node ids mean something only inside their manager, so a kernel serves
  one manager at a time: handing it another manager empties it first.
- It holds at most :data:`MAX_ENTRIES` entries; past that the oldest half
  of every table is dropped, as the BDD operation cache does.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from itertools import combinations, islice
from operator import itemgetter
from typing import Sequence

from repro.bdd.manager import BDD, row_mask
from repro.decompose.compat import cofactor_map
from repro.decompose.partitions import Partition

#: Largest per-function support eligible for truth-table cofactoring.
#: 2^14 rows = 2 KiB per packed table; beyond that, BDD cofactoring wins.
TT_MAX_VARS = 14

#: Bound on the entries a kernel holds (class-id vectors, triples, truth
#: tables, vectors, gather maps, candidate tables and winners together).
MAX_ENTRIES = 1 << 15

#: ``(p, total local classes, dependence)`` of one candidate bound set.
Triple = tuple[int, int, int]

#: A class-id vector: entry ``x`` is the class of the cofactor at vertex ``x``.
Ids = bytes | tuple[int, ...]

#: Fewest free variables for :meth:`BoundSetKernel.column_search`: a column
#: of ``2^3`` rows is one whole byte.
COLUMN_MIN_FREE = 3

#: ``memoryview`` format of a column of 1, 2, 4 or 8 bytes.
_COLUMN_FORMATS = {struct.calcsize(code): code for code in "BHIQ"}

# (n, i, j) -> rows of a 2^n-row table whose bit i is set and bit j is not;
# n <= TT_MAX_VARS bounds it to a few hundred masks of at most 2 KiB
_SWAP_MASKS: dict[tuple[int, int, int], int] = {}


def _swap_mask(n: int, i: int, j: int) -> int:
    """Rows of a 2^n-row table that trade places when bits ``i < j`` of the
    row index are exchanged: bit ``i`` set, bit ``j`` clear."""
    mask = _SWAP_MASKS.get((n, i, j))
    if mask is None:
        mask = row_mask(n, i) & ~row_mask(n, j)
        _SWAP_MASKS[(n, i, j)] = mask
    return mask


def _delta_swap(table: int, mask: int, delta: int) -> int:
    """``table`` with every row of ``mask`` traded with the row ``delta``
    above it."""
    x = ((table >> delta) ^ table) & mask
    return table ^ x ^ (x << delta)


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


def _mask(levels: Sequence[int]) -> int:
    """The bit mask of a set of levels."""
    mask = 0
    for lvl in levels:
        mask |= 1 << lvl
    return mask


def first_minimum(triples: Sequence[Triple], scorer: str) -> int:
    """Index of the first candidate with the smallest ``scorer`` key.

    ``compact`` orders by ``(p, total local classes, -dependence)``,
    ``shared`` by ``(p, -dependence, total local classes)`` (see
    :func:`~repro.partitioning.variables.score_bound_set`).
    """
    if scorer == "compact":
        keys = [(p, classes, -dep) for p, classes, dep in triples]
    elif scorer == "shared":
        keys = [(p, -dep, classes) for p, classes, dep in triples]
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    return keys.index(min(keys))


@dataclass(frozen=True)
class _Vector:
    """An output vector as the kernel holds it: its sorted roots, an id that
    is never reused, and each root's support mask."""

    vid: int
    nodes: tuple[int, ...]
    supports: tuple[int, ...]
    # level -> indices (into ``nodes``) of the roots depending on it
    touched_by: dict[int, list[int]]


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
        # sorted roots -> the vector; ids are never reused, so a triple can
        # only ever be found under the vector that produced it
        self._vectors: dict[tuple[int, ...], _Vector] = {}
        self._next_vector = 0
        # (union size, bit positions of D in the union) -> gather
        self._gathers: dict[tuple[int, tuple[int, ...]], itemgetter] = {}
        # (vector id, candidate levels, bound size) -> the triple of every
        # candidate a column search read, in combinations order
        self._columns: dict[tuple[int, tuple[int, ...], int], list[Triple]] = {}
        # (vector id, candidate levels, bound size, strategy, scorer) ->
        # the bound set that search chose
        self._winners: dict[tuple, tuple[int, ...]] = {}
        self._size = 0  # entries of all seven tables together

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
            self._gathers, self._columns, self._winners,
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

    def _vector(self, bdd: BDD, f_nodes: Sequence[int]) -> _Vector:
        """The vector of these roots in any order (a new one on first sight)."""
        nodes = tuple(sorted(f_nodes))
        vector = self._vectors.get(nodes)
        if vector is None:
            supports = []
            touched_by: dict[int, list[int]] = {}
            for i, f in enumerate(nodes):
                support = bdd.support(f)
                for lvl in support:
                    touched_by.setdefault(lvl, []).append(i)
                supports.append(_mask(support))
            vector = _Vector(self._next_vector, nodes, tuple(supports), touched_by)
            self._next_vector += 1
            self._store(self._vectors, nodes, vector)
        return vector

    def winner(
        self, bdd: BDD, f_nodes: Sequence[int], search: tuple
    ) -> tuple[int, ...] | None:
        """The bound set a search already chose for this vector, or None.

        ``search`` is (candidate levels, bound size, strategy, scorer).  The
        order of ``f_nodes`` does not matter: no triple depends on it.
        """
        self._bind(bdd)
        return self._winners.get((self._vector(bdd, f_nodes).vid, *search))

    def remember_winner(
        self, bdd: BDD, f_nodes: Sequence[int], search: tuple,
        bound_set: Sequence[int],
    ) -> None:
        """Keep the bound set a search chose (see :meth:`winner`)."""
        self._bind(bdd)
        key = (self._vector(bdd, f_nodes).vid, *search)
        self._store(self._winners, key, tuple(bound_set))

    def column_search(
        self,
        bdd: BDD,
        f_nodes: Sequence[int],
        levels: Sequence[int],
        size: int,
        scorer: str = "compact",
    ) -> tuple[tuple[int, ...], int] | None:
        """Exhaustive first-minimum search by column count (module docstring).

        Applies when every output's support lies inside ``levels``, and
        ``levels`` fit :data:`TT_MAX_VARS` and leave at least
        :data:`COLUMN_MIN_FREE` free variables; returns None otherwise.
        Candidates are the :func:`itertools.combinations` of ``levels``;
        their triples are read from the vector's candidate table, which the
        first search at these levels and bound size computes
        (:meth:`_column_triples`) and every later one, under either scorer,
        reuses.  Returns the first candidate with the smallest ``scorer``
        key and the number of candidates the table holds; the winner's
        triple joins the memo.
        """
        free = len(levels) - size
        if free < COLUMN_MIN_FREE or len(levels) > TT_MAX_VARS:
            return None
        self._bind(bdd)
        vector = self._vector(bdd, f_nodes)
        scope = _mask(levels)
        if any(support & ~scope for support in vector.supports):
            return None
        key = (vector.vid, tuple(levels), size)
        table = self._columns.get(key)
        if table is None:
            table = self._column_triples(bdd, vector, levels, size)
            self._store(self._columns, key, table)
        best = first_minimum(table, scorer)
        combo = next(islice(combinations(levels, size), best, None))
        key = (vector.vid, _mask(combo))
        if key not in self._triples:
            self._store(self._triples, key, table[best])
        return combo, len(table)

    def _column_triples(
        self, bdd: BDD, vector: _Vector, levels: Sequence[int], size: int
    ) -> list[Triple]:
        """The triple of every candidate of ``combinations(levels, size)``.

        Block ``k`` of one packed int is output ``k``'s truth table over the
        sorted candidate levels.  For each candidate, delta swaps (masks
        repeated over every block) move the bound variables to the top
        row-index bits, so every block is ``2^size`` consecutive columns of
        ``2^free`` rows, whole bytes.  Column ``x`` of block ``k`` is the
        cofactor of output ``k`` at vertex ``x`` of the bound set, and equal
        columns are equal cofactors, so ``l_k`` counts the block's distinct
        columns and ``p`` the distinct column tuples across blocks.  The
        dependence adds, over the bound levels, how many outputs depend on
        each.  For one output that depends on every level the scan ends at
        the first candidate with two columns, which no later one can beat.
        """
        order = sorted(levels)
        n = len(order)
        rows = 1 << n
        blocks = len(vector.nodes)
        stacked = 0
        for k, f in enumerate(vector.nodes):
            stacked |= bdd.to_truth_bits(f, order) << (k * rows)
        every_block = ((1 << (blocks * rows)) - 1) // ((1 << rows) - 1)
        free = n - size
        # (position below the top, top position) -> (mask, delta) of the swap
        swaps = {
            (i, j): (_swap_mask(n, i, j) * every_block, (1 << j) - (1 << i))
            for i in range(free)
            for j in range(free, n)
        }
        top = range(free, n)
        nbytes = (blocks * rows) >> 3
        width = 1 << (free - 3)  # bytes per column
        code = _COLUMN_FORMATS.get(width)
        columns = 1 << size  # columns per block
        spans = [(k * columns, (k + 1) * columns) for k in range(blocks)]
        pos_of = {lvl: pos for pos, lvl in enumerate(order)}
        positions = [pos_of[lvl] for lvl in levels]
        # level -> number of outputs depending on it
        weights = [
            sum(support >> lvl & 1 for support in vector.supports) for lvl in levels
        ]
        stop = blocks == 1 and weights.count(1) == n
        table: list[Triple] = []
        for bound, bound_weights in zip(
            combinations(positions, size), combinations(weights, size)
        ):
            moved = stacked
            low = [pos for pos in bound if pos < free]
            if low:
                high = [pos for pos in top if pos not in bound]
                for pair in zip(low, high):
                    mask, delta = swaps[pair]
                    moved = _delta_swap(moved, mask, delta)
            data = moved.to_bytes(nbytes, "little")
            if code is not None:
                cols = memoryview(data).cast(code)
            else:
                cols = [data[k:k + width] for k in range(0, nbytes, width)]
            if blocks == 1:
                p = classes = len(set(cols))
            else:
                parts = [cols[lo:hi] for lo, hi in spans]
                classes = sum(len(set(part)) for part in parts)
                p = len(set(zip(*parts)))
            table.append((p, classes, sum(bound_weights)))
            if stop and p == 2:
                break
        return table

    def triples(
        self,
        bdd: BDD,
        f_nodes: Sequence[int],
        combos: Sequence[Sequence[int]],
    ) -> list[Triple]:
        """The triple of every candidate bound set in ``combos``, in order."""
        self._bind(bdd)
        vector = self._vector(bdd, f_nodes)
        touched_by = vector.touched_by
        memo = self._triples
        out = []
        for combo in combos:
            key = (vector.vid, _mask(combo))
            triple = memo.get(key)
            if triple is None:
                touched: set[int] = set()
                for lvl in combo:
                    touched.update(touched_by.get(lvl, ()))
                triple = self._score(bdd, vector, touched, key[1])
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
        self, bdd: BDD, vector: _Vector, touched: set[int], bmask: int
    ) -> Triple:
        """The triple of candidate ``bmask``, which ``touched`` outputs depend on."""
        nodes = vector.nodes
        memo = self._classes
        classes = len(nodes) - len(touched)
        dependence = union = 0
        involved = []
        for i in touched:
            f = nodes[i]
            dep = bmask & vector.supports[i]
            vec, count = memo.get((f, dep)) or self._class_vector(bdd, f, dep)
            classes += count
            dependence += dep.bit_count()
            union |= dep
            involved.append((vec, dep))
        if not involved:
            return 1, classes, dependence
        if len(involved) == 1:
            return count, classes, dependence
        levels = _levels(union)
        size = len(levels)
        gathers = self._gathers
        columns = []
        for vec, dep in involved:
            if dep != union:
                positions = [j for j, lvl in enumerate(levels) if dep >> lvl & 1]
                key = (size, tuple(positions))
                vec = (gathers.get(key) or self._gather(*key))(vec)
            columns.append(vec)
        return len(set(zip(*columns))), classes, dependence
