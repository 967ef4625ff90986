"""Construction of the composition function ``g``.

Given the vertex codes produced by the decomposition functions and the
cofactor of ``f`` at each bound-set vertex, ``g`` is assembled as

    g(w, y)  =  OR over used codes  [ minterm_w(code) AND cofactor(code) ]

where all vertices sharing a code are guaranteed compatible (the product of
the ``Pi_d`` refines ``Pi_f``), so any vertex of the code block can supply
the cofactor.  Codes never produced by ``d`` are don't-cares; ``g`` is 0
on them, which keeps ``f(x, y) == g(d(x), y)`` exact.
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDD, FALSE


def vertex_codes_consistent(codes: Sequence[int], cofactors: Sequence[int]) -> bool:
    """Check that equal codes imply equal cofactors (Decomposition Condition 1)."""
    seen: dict[int, int] = {}
    for code, cof in zip(codes, cofactors):
        if code in seen and seen[code] != cof:
            return False
        seen.setdefault(code, cof)
    return True


def build_g(
    bdd: BDD,
    code_levels: Sequence[int],
    codes: Sequence[int],
    cofactors: Sequence[int],
) -> int:
    """Build the composition function ``g`` as a BDD node.

    ``codes[x]`` is the code of bound-set vertex ``x``; ``cofactors[x]`` is
    the BDD of ``f`` at that vertex (a function of the free variables).
    ``code_levels`` are the BDD levels of the ``w`` inputs of ``g`` (LSB
    first).  ``g`` is 0 on every unused code.
    """
    if len(codes) != len(cofactors):
        raise ValueError("need one code per vertex")
    if not vertex_codes_consistent(codes, cofactors):
        raise ValueError("codes do not refine the compatibility partition")
    c = len(code_levels)
    by_code: dict[int, int] = {}
    for code, cof in zip(codes, cofactors):
        if code >= (1 << c):
            raise ValueError(f"code {code} does not fit in {c} bits")
        by_code[code] = cof

    g = FALSE
    for code, cof in sorted(by_code.items()):
        values = [bool((code >> j) & 1) for j in range(c)]
        term = bdd.apply_and(bdd.minterm(code_levels, values), cof)
        g = bdd.apply_or(g, term)
    return g
