"""Implicit computation of the preferable-function characteristic chi_k(z).

This is the heart of Section 6.  For output ``k`` with local classes
``L_1..L_l`` (each a union of global classes) and ``c`` the codewidth, a
constructable function ``d`` is *assignable* w.r.t. the empty partial
assignment iff

- at least ``delta = l - 2^(c-1)`` local classes lie completely in the onset
  of ``d`` (condition C1), and
- at least ``delta`` local classes lie completely in the offset (C0).

The set of all subsets of at least ``delta`` out of ``l`` objects is built by
the ``subset`` threshold DP of Fig. 4; substituting for each abstract object
``v_i`` the conjunction of the positive (resp. negative) z-literals of the
global classes inside local class ``i`` turns it into ``psi1`` (resp.
``psi0``).  Then ``chi = psi0 & psi1`` (optionally normalized with ``~z_0``
to drop complements).

For a non-empty partial assignment the partial partition consists of several
blocks; the same construction is applied per block (with the local classes
restricted to the block and the remaining codewidth budget) and the results
are conjoined -- exactly the "applied for each block" rule of the paper.
"""

from __future__ import annotations

from typing import Sequence

from repro.imodec.zspace import BaseZSpace


def threshold_at_least(zspace: BaseZSpace, terms: Sequence[int], delta: int) -> int:
    """Set of vertices where at least ``delta`` of the given functions hold.

    This is the ``subset`` algorithm of Fig. 4 with the positional literals
    ``v_i`` already replaced by arbitrary functions (the psi substitution),
    so one pass serves both psi0 and psi1.  Complexity O(delta * len(terms))
    set operations (BDD or bit-set), as stated in the paper.
    """
    if delta <= 0:
        return zspace.true
    if delta > len(terms):
        return zspace.false
    and_, or_ = zspace.and_, zspace.or_
    t = [zspace.true] + [zspace.false] * delta
    for term in terms:
        for j in range(delta, 0, -1):
            t[j] = or_(t[j], and_(t[j - 1], term))
    return t[delta]


def block_condition(
    zspace: BaseZSpace,
    classes_in_block: Sequence[Sequence[int]],
    remaining_codewidth: int,
) -> int:
    """Assignability condition contributed by one partial-partition block.

    ``classes_in_block`` lists, for every local class intersecting the block,
    the global classes of the intersection.  ``remaining_codewidth`` is
    ``c - s``: the number of decomposition functions the output may still
    receive.  The next function must split the block so that each half
    intersects at most ``2^(remaining-1)`` local classes.
    """
    if remaining_codewidth < 1:
        raise ValueError("no codewidth budget left for this output")
    num_classes = len(classes_in_block)
    delta = num_classes - (1 << (remaining_codewidth - 1))
    if delta <= 0:
        return zspace.true
    pos_terms = [zspace.conj_pos(cls) for cls in classes_in_block]
    neg_terms = [zspace.conj_neg(cls) for cls in classes_in_block]
    psi1 = threshold_at_least(zspace, pos_terms, delta)
    psi0 = threshold_at_least(zspace, neg_terms, delta)
    return zspace.and_(psi0, psi1)


def purity_condition(
    zspace: BaseZSpace, classes: Sequence[Sequence[int]]
) -> int:
    """Each class entirely in the onset or entirely in the offset.

    This is the extra constraint of *strict* decomposition (Karp; also the
    strict multiple-output methods of the paper's refs [10, 11]): a local
    class may not be split across codes.  The paper's non-strict algorithm
    drops it, which is exactly what exposes the additional shared functions.
    """
    cond = zspace.true
    for cls in classes:
        pure = zspace.or_(zspace.conj_pos(cls), zspace.conj_neg(cls))
        cond = zspace.and_(cond, pure)
        if cond == zspace.false:
            break
    return cond


def chi_for_output(
    zspace: BaseZSpace,
    blocks: Sequence[Sequence[Sequence[int]]],
    remaining_codewidth: int,
    normalize: bool = True,
    strict: bool = False,
) -> int:
    """Characteristic function of the preferable functions of one output.

    ``blocks`` is the current partial partition: one entry per block, each a
    list of local-class intersections (lists of global class ids).
    ``normalize`` multiplies by ``~z_0`` to eliminate complementary
    functions, as in the paper; the Table 1 counters disable it to report raw
    counts.  ``strict`` additionally forbids splitting local classes (the
    one-code-per-class baseline the paper improves on).
    """
    and_, false = zspace.and_, zspace.false
    chi = zspace.true
    for classes_in_block in blocks:
        chi = and_(
            chi, block_condition(zspace, classes_in_block, remaining_codewidth)
        )
        if strict and chi != false:
            chi = and_(chi, purity_condition(zspace, classes_in_block))
        if chi == false:
            break
    if normalize:
        chi = and_(chi, zspace.conj_neg([0]))
    return chi
