"""The implicit Lmax step (Section 6, after Kam et al.).

Given the characteristic functions ``chi_1(z) .. chi_m(z)`` of the still
incomplete outputs, find a z-vertex contained in the onset of a maximum
number of them -- i.e. a decomposition function preferable for a maximum
number of outputs (the column of Fig. 5 with the most 1s).

The computation is fully implicit: a layered DP over characteristic
functions (BDDs or bit sets, :mod:`repro.imodec.zspace`) maintains, for
every count ``c``, the characteristic function of the z-vertices lying in
exactly ``c`` of the chi's processed so far.  After all m functions the
highest non-empty layer is the answer.  m+1 layers and 2m set operations per
chi -- no covering table is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from repro.errors import DecompositionError
from repro.imodec.zspace import BaseZSpace

TieBreak = Literal["first", "balanced"]


@dataclass
class LmaxResult:
    """Outcome of one Lmax invocation.

    Attributes:
        count: the maximum number of chi's sharing a vertex.
        winners: the set (in the z-space) of all vertices achieving it.
        vertex: one chosen winning vertex as a total level->bool assignment.
    """

    count: int
    winners: int
    vertex: dict[int, bool]


def count_layers(zspace: BaseZSpace, chis: Sequence[int]) -> list[int]:
    """Layer ``c`` = characteristic function of membership in exactly c chis."""
    and_, or_, not_, false = zspace.and_, zspace.or_, zspace.not_, zspace.false
    layers = [zspace.true]
    for chi in chis:
        not_chi = not_(chi)
        new_layers = [false] * (len(layers) + 1)
        for c, layer in enumerate(layers):
            if layer == false:
                continue
            new_layers[c] = or_(new_layers[c], and_(layer, not_chi))
            new_layers[c + 1] = or_(new_layers[c + 1], and_(layer, chi))
        layers = new_layers
    return layers


def pick_vertex(
    zspace: BaseZSpace, winners: int, tie_break: TieBreak = "first"
) -> dict[int, bool]:
    """Choose one vertex from a non-empty winner set.

    ``first`` extends ``sat_one`` with zeros (deterministic, cheap).
    ``balanced`` walks the levels preferring the branch that keeps the
    number of onset classes close to half of ``p`` -- a mild heuristic that
    tends to produce decomposition functions with balanced code usage.

    Both z-space representations pick the same vertex from the same set
    (:meth:`~repro.imodec.zspace.BitZSpace.first_vertex`,
    :meth:`~repro.imodec.zspace.BitZSpace.balanced_vertex`); the BDD walk
    raises :class:`DecompositionError` on a corrupt winner set.
    """
    if winners == zspace.false:
        raise ValueError("winner set is empty")
    if tie_break == "first":
        return zspace.first_vertex(winners)
    if tie_break != "balanced":
        raise ValueError(f"unknown tie-break strategy {tie_break!r}")
    return zspace.balanced_vertex(winners)


def lmax(
    zspace: BaseZSpace, chis: Sequence[int], tie_break: TieBreak = "first"
) -> LmaxResult:
    """Find a vertex preferable for a maximum number of outputs."""
    if not chis:
        raise ValueError("need at least one characteristic function")
    layers = count_layers(zspace, chis)
    for count in range(len(layers) - 1, -1, -1):
        if layers[count] != zspace.false:
            vertex = pick_vertex(zspace, layers[count], tie_break)
            return LmaxResult(count=count, winners=layers[count], vertex=vertex)
    raise DecompositionError("layer 0 is the full space; unreachable")
