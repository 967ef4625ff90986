"""Local compatibility partitions (Definition 1 of the paper).

Two bound-set vertices are *compatible* for a function ``f`` iff the
cofactors of ``f`` at the two vertices are identical functions of the free
variables.  With a canonical BDD representation this is a node-id comparison,
so the local compatibility partition ``Pi_f`` falls out of grouping the
``2^b`` cofactors by node id -- the implicit analogue of comparing the
columns of the decomposition chart.
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.partitions import Partition


def vertex_assignment(bs_levels: Sequence[int], vertex: int) -> dict[int, bool]:
    """Level -> value assignment for a bound-set vertex.

    Bit ``j`` of ``vertex`` is the value of ``bs_levels[j]`` (the same
    LSB-first convention as :class:`~repro.boolfunc.truthtable.TruthTable`).
    """
    return {lvl: bool((vertex >> j) & 1) for j, lvl in enumerate(bs_levels)}


def cofactor_map(bdd: BDD, f: int, bs_levels: Sequence[int]) -> list[int]:
    """Cofactor node of ``f`` for every bound-set vertex.

    Entry ``x`` is the BDD node of ``f`` restricted to vertex ``x`` of the
    bound set; it is a function of the free variables only.  Cofactoring is
    done one variable at a time so the manager's restrict cache is shared
    across the whole map (and across repeated calls with overlapping bound
    sets, which the variable-partitioning search does constantly).
    """
    maps = [f]
    for j, lvl in enumerate(bs_levels):
        nxt = [0] * (len(maps) * 2)
        for x, node in enumerate(maps):
            nxt[x] = bdd.restrict(node, {lvl: False})
            nxt[x | (1 << j)] = bdd.restrict(node, {lvl: True})
        maps = nxt
    return maps


def class_cofactors(
    bdd: BDD, f: int, bs_levels: Sequence[int], partition: Partition
) -> list[int]:
    """:func:`cofactor_map` from one restrict per class of ``partition``.

    ``partition`` must be ``f``'s local compatibility partition over the
    vertices of ``bs_levels``: every vertex of a class has the same
    cofactor, so ``f`` is restricted once per class, at the class's first
    vertex and on the bound levels in its support.  The manager is
    canonical, so the nodes equal :func:`cofactor_map`'s.
    """
    support = bdd.support(f)
    levels = [(j, lvl) for j, lvl in enumerate(bs_levels) if lvl in support]
    per_class: list[int] = []
    for x, label in enumerate(partition.labels):
        if label == len(per_class):  # labels number classes by first vertex
            per_class.append(
                bdd.restrict(f, {lvl: bool((x >> j) & 1) for j, lvl in levels})
            )
    return [per_class[label] for label in partition.labels]


def local_partition(bdd: BDD, f: int, bs_levels: Sequence[int]) -> Partition:
    """The local compatibility partition ``Pi_f = X / R_f`` (Definition 1)."""
    return Partition.from_keys(cofactor_map(bdd, f, bs_levels))


def local_partition_tt(table: TruthTable, bs_indices: Sequence[int]) -> Partition:
    """Truth-table variant of :func:`local_partition` (used as a test oracle).

    ``bs_indices`` are variable indices of ``table``; the remaining variables
    form the free set.
    """
    keys = []
    for x in range(1 << len(bs_indices)):
        assignment = {idx: bool((x >> j) & 1) for j, idx in enumerate(bs_indices)}
        keys.append(table.restrict(assignment).bits)
    return Partition.from_keys(keys)


def column_multiplicity(bdd: BDD, f: int, bs_levels: Sequence[int]) -> int:
    """Number of distinct columns of the decomposition chart (``l`` in the paper)."""
    return local_partition(bdd, f, bs_levels).num_blocks


def codewidth(num_classes: int) -> int:
    """Minimum number of decomposition functions: ``c = ceil(ld l)``.

    A single local class needs no decomposition function at all (the function
    does not depend on the bound set).
    """
    if num_classes < 1:
        raise ValueError("a partition has at least one class")
    return (num_classes - 1).bit_length()
