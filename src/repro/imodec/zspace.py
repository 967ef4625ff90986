"""Positional-set representation of constructable functions (Section 6).

A constructable function is fully determined by which global classes lie in
its onset, so the set of constructable functions is in bijection with
``{0,1}^p``: vertex ``z`` has ``z_i = 1`` iff global class ``G_i`` is in the
onset.  Sets of constructable functions become characteristic functions
``chi(z)`` over the ``z`` variables, held in one of two representations
behind the same interface:

- :class:`BitZSpace` (``p <= BITSET_MAX_CLASSES``): ``chi`` is a Python
  int of ``2^p`` bits, bit ``v`` set iff the vertex whose ``z_i`` is bit
  ``i`` of ``v`` lies in the set.  ``z_i`` is the row mask of bit ``i``,
  and AND/OR/NOT are single big-integer operations over every vertex at
  once.
- :class:`ZSpace` (any ``p``): ``chi`` is a node of a dedicated BDD
  manager over ``z_0 .. z_{p-1}``.  It is the representation above the
  cutoff, where ``2^p`` bits no longer fit, and the oracle the bit sets
  are tested against.

:func:`make_zspace` picks one.  The dynamic programs of
:mod:`repro.imodec.chi` and :mod:`repro.imodec.lmax` are written once
against the shared operations (``true``, ``false``, ``and_``, ``or_``,
``not_``, ``conj_pos``, ``conj_neg``), and both representations choose the
same vertex for both tie-breaks (docs/THEORY.md §6), so the decomposition
does not depend on which one held ``chi``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping

from repro.bdd.manager import BDD, FALSE, TRUE, row_mask
from repro.bdd.satcount import satcount
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.partitions import Partition
from repro.errors import DecompositionError
from repro.imodec.globalpart import constructable_table

#: Largest number of global classes whose characteristic functions are held
#: as bit sets (2^20 bits = 128 KiB per set); larger z-spaces use a BDD.
#: Measured on rugged-large (docs/THEORY.md §6): cutoffs from 16 to 22 run
#: alike, 24 and 26 are clearly slower, and BDDs only are slowest.
BITSET_MAX_CLASSES = 20


class BaseZSpace:
    """What both representations share: ``p`` and the vertex <-> function maps.

    A vertex is a level -> bool mapping over ``levels`` (``0 .. p-1``).
    """

    #: Whether characteristic functions are bit sets (else BDD nodes).
    bitset = False

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ValueError("need at least one global class")
        self.p = num_classes
        self.levels = list(range(num_classes))

    def vertex_from_classes(self, classes_on: Iterable[int]) -> dict[int, bool]:
        """Total z-assignment whose onset classes are ``classes_on``."""
        on = set(classes_on)
        bad = on - set(range(self.p))
        if bad:
            raise ValueError(f"unknown global classes {sorted(bad)}")
        return {i: (i in on) for i in range(self.p)}

    def classes_from_vertex(self, vertex: Mapping[int, bool]) -> frozenset[int]:
        """Onset global classes of a (possibly partial) z-assignment.

        Unassigned variables default to 0 (class in the offset), matching how
        the decomposer completes the partial models returned by ``sat_one``.
        """
        return frozenset(i for i in range(self.p) if vertex.get(i, False))

    def function_from_vertex(self, vertex: Mapping[int, bool], global_part: Partition) -> TruthTable:
        """The constructable function represented by a z-vertex (Example 4)."""
        if global_part.num_blocks != self.p:
            raise ValueError("partition has a different number of global classes")
        return constructable_table(self.classes_from_vertex(vertex), global_part)


class ZSpace(BaseZSpace):
    """BDD manager over the ``p`` positional-set variables ``z_0 .. z_{p-1}``."""

    def __init__(self, num_classes: int) -> None:
        super().__init__(num_classes)
        self.bdd = BDD()
        for i in range(num_classes):
            self.bdd.add_var(f"z{i}")
        self.true = TRUE
        self.false = FALSE
        self.and_ = self.bdd.apply_and
        self.or_ = self.bdd.apply_or
        self.not_ = self.bdd.apply_not

    # ------------------------------------------------------------------
    # characteristic-function helpers
    # ------------------------------------------------------------------

    def conj_pos(self, classes: Iterable[int]) -> int:
        """Conjunction of positive z-literals of the given classes."""
        return self.bdd.cube({i: True for i in classes})

    def conj_neg(self, classes: Iterable[int]) -> int:
        """Conjunction of negative z-literals of the given classes."""
        return self.bdd.cube({i: False for i in classes})

    def count(self, chi: int) -> int:
        """Number of constructable functions in the set ``chi`` (exact)."""
        return satcount(self.bdd, chi, self.levels)

    def contains(self, chi: int, vertex: Mapping[int, bool]) -> bool:
        """Membership test of a z-vertex in a characteristic function."""
        full = {i: vertex.get(i, False) for i in range(self.p)}
        return self.bdd.eval(chi, full)

    # ------------------------------------------------------------------
    # choosing a vertex (repro.imodec.lmax.pick_vertex)
    # ------------------------------------------------------------------

    def first_vertex(self, chi: int) -> dict[int, bool]:
        """``sat_one``'s low-first model of ``chi``, completed with zeros."""
        partial = self.bdd.sat_one(chi)
        if partial is None:
            raise DecompositionError(
                "sat_one returned no model for a non-FALSE winner set"
            )
        return {lvl: partial.get(lvl, False) for lvl in self.levels}

    def balanced_vertex(self, chi: int) -> dict[int, bool]:
        """The balanced walk (see :func:`repro.imodec.lmax.pick_vertex`).

        The walk descends with the manager's :meth:`BDD.low` /
        :meth:`BDD.high` accessors, which propagate the complement attribute
        of the incoming edge (reading the stored child arrays directly would
        flip the chosen branch under a negated winner set).  Levels the walk
        never meets -- skipped free variables -- leave the current edge
        untouched, so the walk ends on the TRUE terminal for every choice of
        free values; anything else means the winner set was corrupt and
        raises :class:`DecompositionError`.
        """
        bdd = self.bdd
        target = self.p // 2
        vertex: dict[int, bool] = {}
        ones = 0
        node = chi
        for lvl in self.levels:
            if not bdd.is_terminal(node) and bdd.level(node) == lvl:
                # Polarity-propagating accessors: complement edges resolved here.
                lo, hi = bdd.low(node), bdd.high(node)
                prefer_one = ones < target
                if prefer_one and hi != FALSE:
                    vertex[lvl] = True
                    node = hi
                elif lo != FALSE:
                    vertex[lvl] = False
                    node = lo
                else:
                    vertex[lvl] = True
                    node = hi
            else:
                # free variable: choose by balance
                vertex[lvl] = ones < target
            if vertex[lvl]:
                ones += 1
        if node != TRUE:
            raise DecompositionError(
                "balanced tie-break walk left the winner set (ended on "
                f"edge {node} instead of TRUE); the z-space BDD is inconsistent"
            )
        return vertex


class BitZSpace(BaseZSpace):
    """Characteristic functions as ``2^p``-bit ints (bit ``v``: vertex ``v``).

    Vertex ``v`` assigns ``z_i`` bit ``i`` of ``v``, so ``z_i`` is
    :func:`~repro.bdd.manager.row_mask` ``(p, i)``: the truth-table
    convention, with the z-space as the table's rows.
    """

    bitset = True

    def __init__(self, num_classes: int) -> None:
        super().__init__(num_classes)
        full = (1 << (1 << num_classes)) - 1
        self._ones = [row_mask(num_classes, i) for i in range(num_classes)]
        self._zeros = [full ^ mask for mask in self._ones]
        self.true = full
        self.false = 0
        self.and_ = operator.and_
        self.or_ = operator.or_
        self.not_ = full.__xor__

    def conj_pos(self, classes: Iterable[int]) -> int:
        """Conjunction of positive z-literals of the given classes."""
        chi = self.true
        for i in classes:
            chi &= self._ones[i]
        return chi

    def conj_neg(self, classes: Iterable[int]) -> int:
        """Conjunction of negative z-literals of the given classes."""
        chi = self.true
        for i in classes:
            chi &= self._zeros[i]
        return chi

    def count(self, chi: int) -> int:
        """Number of constructable functions in the set ``chi`` (exact)."""
        return chi.bit_count()

    def contains(self, chi: int, vertex: Mapping[int, bool]) -> bool:
        """Membership test of a z-vertex in a characteristic function."""
        index = 0
        for i in range(self.p):
            if vertex.get(i, False):
                index |= 1 << i
        return bool(chi >> index & 1)

    def first_vertex(self, chi: int) -> dict[int, bool]:
        """The vertex :meth:`ZSpace.first_vertex` picks from the same set.

        Level by level, take ``z_i = 0`` whenever some member of the
        remaining set has it: exactly ``sat_one``'s low-first descent, whose
        skipped levels (both halves non-empty) complete to 0 as well.
        """
        vertex: dict[int, bool] = {}
        for i in range(self.p):
            low = chi & self._zeros[i]
            vertex[i] = not low
            chi = low or chi & self._ones[i]
        return vertex

    def balanced_vertex(self, chi: int) -> dict[int, bool]:
        """The vertex :meth:`ZSpace.balanced_vertex` picks from the same set.

        The BDD walk branches only on which cofactors are empty: with both
        halves non-empty (a node, or a skipped level) it takes ``z_i = 1``
        while fewer than ``p // 2`` ones are set, otherwise it takes the
        only non-empty half.  So does this walk.
        """
        target = self.p // 2
        vertex: dict[int, bool] = {}
        ones = 0
        for i in range(self.p):
            low = chi & self._zeros[i]
            high = chi & self._ones[i]
            take = (ones < target) if low and high else not low
            vertex[i] = take
            if take:
                ones += 1
                chi = high
            else:
                chi = low
        return vertex


def make_zspace(num_classes: int) -> BitZSpace | ZSpace:
    """The z-space over ``num_classes`` global classes: bit sets up to
    :data:`BITSET_MAX_CLASSES`, a BDD manager above."""
    if num_classes <= BITSET_MAX_CLASSES:
        return BitZSpace(num_classes)
    return ZSpace(num_classes)
