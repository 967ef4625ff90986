"""Sum-of-products covers (lists of cubes).

:class:`Sop` is the two-level representation used by the PLA parser, the
espresso-style minimizer and the algebraic optimizer.  It is deliberately a
thin container; the algorithms that manipulate covers live in
:mod:`repro.twolevel` and :mod:`repro.algebraic`.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from repro.boolfunc.cube import Cube
from repro.boolfunc.truthtable import TruthTable


class Sop:
    """A disjunction of cubes over ``num_vars`` variables."""

    __slots__ = ("num_vars", "cubes")

    def __init__(self, num_vars: int, cubes: Iterable[Cube] = ()) -> None:
        self.num_vars = num_vars
        self.cubes: list[Cube] = []
        for cube in cubes:
            if cube.num_vars != num_vars:
                raise ValueError("cube arity mismatch")
            self.cubes.append(cube)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Sop":
        """The empty cover (constant 0)."""
        return cls(num_vars)

    @classmethod
    def one(cls, num_vars: int) -> "Sop":
        """The tautology cover (constant 1)."""
        return cls(num_vars, [Cube.tautology(num_vars)])

    @classmethod
    def from_strings(cls, num_vars: int, rows: Iterable[str]) -> "Sop":
        """Build from PLA-style cube strings."""
        cubes = [Cube.from_string(r) for r in rows]
        for cube in cubes:
            if cube.num_vars != num_vars:
                raise ValueError("cube string length mismatch")
        return cls(num_vars, cubes)

    @classmethod
    def from_truthtable(cls, table: TruthTable) -> "Sop":
        """Canonical minterm cover of a truth table."""
        cubes = [Cube.from_minterm(table.num_vars, m) for m in table.minterms()]
        return cls(table.num_vars, cubes)

    @classmethod
    def random(cls, num_vars: int, num_cubes: int, rng: random.Random, care_prob: float = 0.6) -> "Sop":
        """Random structured cover (tests/benchmarks)."""
        cubes = []
        for _ in range(num_cubes):
            care = value = 0
            for j in range(num_vars):
                if rng.random() < care_prob:
                    care |= 1 << j
                    if rng.random() < 0.5:
                        value |= 1 << j
            cubes.append(Cube(num_vars, care, value))
        return cls(num_vars, cubes)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def num_literals(self) -> int:
        """Total literal count (the classic area proxy)."""
        return sum(c.num_literals() for c in self.cubes)

    def evaluate(self, row: int) -> bool:
        """Value of the cover on the minterm ``row``."""
        return any(c.contains_minterm(row) for c in self.cubes)

    def __call__(self, *args: bool | int) -> bool:
        if len(args) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} arguments")
        row = sum(1 << j for j, a in enumerate(args) if a)
        return self.evaluate(row)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "Sop") -> "Sop":
        if self.num_vars != other.num_vars:
            raise ValueError("arity mismatch")
        return Sop(self.num_vars, list(self.cubes) + list(other.cubes))

    def cofactor(self, cube: Cube) -> "Sop":
        """Cover of the Shannon cofactor w.r.t. ``cube``."""
        result = []
        for c in self.cubes:
            cf = c.cofactor(cube)
            if cf is not None:
                result.append(cf)
        return Sop(self.num_vars, result)

    def dedup(self) -> "Sop":
        """Remove duplicate and single-cube-contained cubes."""
        kept: list[Cube] = []
        for cube in sorted(self.cubes, key=lambda c: c.num_literals()):
            if not any(k.covers(cube) for k in kept):
                kept.append(cube)
        return Sop(self.num_vars, kept)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_truthtable(self) -> TruthTable:
        """Tabulate the cover (practical up to ~20 variables)."""
        bits = 0
        for cube in self.cubes:
            for row in cube.minterms():
                bits |= 1 << row
        return TruthTable(self.num_vars, bits)

    def to_bdd(self, bdd, levels: Sequence[int]) -> int:
        """Build the cover in a BDD manager over the given levels."""
        if len(levels) != self.num_vars:
            raise ValueError("need one level per variable")
        from repro.network.collapse import cover_function

        return cover_function(bdd, self, [bdd.var(lvl) for lvl in levels])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sop(num_vars={self.num_vars}, cubes={[str(c) for c in self.cubes]})"
