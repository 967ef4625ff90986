"""Positional-set representation of constructable functions (Section 6).

A constructable function is fully determined by which global classes lie in
its onset, so the set of constructable functions is in bijection with
``{0,1}^p``: vertex ``z`` has ``z_i = 1`` iff global class ``G_i`` is in the
onset.  Sets of constructable functions become characteristic functions over
the ``z`` variables and are stored in a dedicated BDD manager, the
:class:`ZSpace`.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.bdd.manager import BDD
from repro.bdd.satcount import satcount
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.partitions import Partition
from repro.imodec.globalpart import constructable_table


class ZSpace:
    """BDD manager over the ``p`` positional-set variables ``z_0 .. z_{p-1}``."""

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ValueError("need at least one global class")
        self.p = num_classes
        self.bdd = BDD()
        for i in range(num_classes):
            self.bdd.add_var(f"z{i}")
        self.levels = list(range(num_classes))

    # ------------------------------------------------------------------
    # vertices <-> functions
    # ------------------------------------------------------------------

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
