"""Single-output disjoint functional decomposition (Section 3).

Given ``f(x, y)`` and a bound set ``x``, this module produces decomposition
functions ``d_1..d_c`` over the bound set and a composition function ``g``
with ``f(x, y) = g(d_1(x), .., d_c(x), y)``.  Codes are assigned strictly
(one code per compatibility class, dense binary encoding), which is exactly
the classical Roth--Karp construction and the "Single" baseline of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.decompose import codes as codes_mod
from repro.decompose.compat import codewidth, cofactor_map
from repro.decompose.gfunc import build_g
from repro.decompose.partitions import Partition


@dataclass
class SingleDecomposition:
    """Result of decomposing one output.

    Attributes:
        bs_levels: BDD levels of the bound-set variables (LSB first).
        fs_levels: BDD levels of the free-set variables.
        code_levels: freshly created levels carrying the ``d`` outputs into ``g``.
        partition: the local compatibility partition ``Pi_f``.
        d_tables: decomposition functions as truth tables over the bound set.
        d_nodes: the same functions as BDD nodes over ``bs_levels``.
        g_node: the composition function over ``code_levels + fs_levels``.
    """

    bs_levels: list[int]
    fs_levels: list[int]
    code_levels: list[int]
    partition: Partition
    d_tables: list[TruthTable] = field(default_factory=list)
    d_nodes: list[int] = field(default_factory=list)
    g_node: int = 0

    @property
    def num_classes(self) -> int:
        """Column multiplicity ``l``."""
        return self.partition.num_blocks

    @property
    def codewidth(self) -> int:
        """Number of decomposition functions ``c``."""
        return len(self.d_tables)

    def verify(self, bdd: BDD, f: int) -> bool:
        """Check ``f(x,y) == g(d(x),y)`` by BDD composition (exact)."""
        substitution = {
            lvl: node for lvl, node in zip(self.code_levels, self.d_nodes)
        }
        return bdd.compose(self.g_node, substitution) == f


def decompose_single(
    bdd: BDD,
    f: int,
    bs_levels: Sequence[int],
    fs_levels: Sequence[int],
    code_prefix: str = "w",
) -> SingleDecomposition:
    """Classical strict decomposition of a single output.

    New code variables (the ``w`` inputs of ``g``) are appended to the
    manager.  The support of ``f`` must be contained in
    ``bs_levels + fs_levels``; the bound and free sets must be disjoint.
    """
    bs = list(bs_levels)
    fs = list(fs_levels)
    if set(bs) & set(fs):
        raise ValueError("bound and free sets must be disjoint")
    extra = bdd.support(f) - set(bs) - set(fs)
    if extra:
        raise ValueError(f"support levels {sorted(extra)} outside bound+free sets")

    cofactors = cofactor_map(bdd, f, bs)
    partition = Partition.from_keys(cofactors)
    c = codewidth(partition.num_blocks)

    code_levels: list[int] = []
    for i in range(c):
        lit = bdd.add_var(f"{code_prefix}{bdd.num_vars}_{i}")
        code_levels.append(bdd.level(lit))

    class_codes = codes_mod.dense_codes(partition.num_blocks)
    d_tables = codes_mod.d_tables_from_codes(partition, class_codes, c)
    d_nodes = [t.to_bdd(bdd, bs) for t in d_tables]
    vertex_codes = codes_mod.codes_from_d_tables(d_tables) if c else [0] * (1 << len(bs))
    g_node = build_g(bdd, code_levels, vertex_codes, cofactors)

    return SingleDecomposition(
        bs_levels=bs,
        fs_levels=fs,
        code_levels=code_levels,
        partition=partition,
        d_tables=d_tables,
        d_nodes=d_nodes,
        g_node=g_node,
    )
