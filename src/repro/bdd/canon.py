"""Canonical fingerprints of multiple-output functions (NPN-lite).

The result cache (:mod:`repro.cache`) keys each output group by a fingerprint
that is invariant under the renamings a function undergoes between runs:

- **support normalization** -- only the levels the group actually depends on
  enter the key, relabeled ``0..n-1`` in order of appearance, so the same
  cone keys identically regardless of where its inputs sit in the manager;
- **input permutation / polarity and output polarity** (the "NPN" part) --
  a heuristic canonical form so the same function reached under permuted or
  complemented inputs, or as its own complement, still keys identically.

The canonicalization is *NPN-lite*: candidate transforms are narrowed by
semantic (transform-invariant) signatures -- output phase by model count,
input phase and order by cofactor-count signatures -- and only the residual
ties are broken by enumerating candidates and taking the lexicographically
least serialized BDD.  When the tie space exceeds ``max_candidates`` (highly
symmetric functions: XORs, parity slices) or the canonical rebuild exceeds
``node_budget``, :func:`canonical_form` falls back to the *raw* key: the
support-normalized DAG in the caller's variable order.  Raw keys are still
rename-invariant, just not permutation/polarity-invariant -- a cache miss,
never an incorrect hit.  The :attr:`CanonicalForm.exact` flag records which
path produced the key.

Soundness does not rest on the heuristic: the cache layer
(:mod:`repro.cache.group`) re-verifies every hit against the requested
functions before using it, so even a key collision degrades to a miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Sequence

from repro.bdd.manager import BDD, FALSE, TRUE

#: Default cap on enumerated tie-breaking candidates before falling back.
MAX_CANDIDATES = 64

#: Default cap on scratch-manager nodes while rebuilding a candidate.
NODE_BUDGET = 100_000


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical key plus the transform that produced it.

    The transform maps the *caller's* function vector onto the canonical
    one; the cache layer inverts it to map a stored result back onto the
    caller's variables.

    Attributes:
        key: hex digest, prefixed ``npn:`` (exact canonical form) or
            ``raw:`` (support-normalized fallback).
        levels: the support union of the vector, as sorted manager levels;
            position ``i`` in this tuple is "support index ``i``".
        perm: canonical position ``p`` holds support index ``perm[p]``
            (identity for the fallback).
        input_phase: per canonical position, 1 iff the input is
            complemented on the way into the canonical function.
        output_phase: per root, 1 iff the canonical function is the
            complement of the caller's root.
        exact: True iff the key came from the full NPN-lite canonical form
            (two exact forms of NPN-equivalent vectors always share a key;
            raw keys only match when support order and polarities align).
    """

    key: str
    levels: tuple[int, ...]
    perm: tuple[int, ...]
    input_phase: tuple[int, ...]
    output_phase: tuple[int, ...]
    exact: bool


def dag_bytes(bdd: BDD, roots: Sequence[int], level_index: dict[int, int]) -> bytes:
    """Deterministic serialization of the DAG of ``roots`` for hashing.

    ``level_index`` renames manager levels to dense support indices so the
    bytes do not depend on where the cone sits in the manager.  Node order
    is the child-before-parent discovery order of the root walk, which is a
    function of the DAG shape only -- two managers holding equal functions
    over identically-indexed levels serialize identically.
    """
    local: dict[int, int] = {0: 0}
    parts: list[str] = []

    def visit(edge: int) -> None:
        stack = [edge]
        while stack:
            e = stack.pop()
            idx = e >> 1
            if idx in local:
                continue
            low = bdd.low(e & ~1)
            high = bdd.high(e & ~1)
            lo_i, hi_i = low >> 1, high >> 1
            if lo_i in local and hi_i in local:
                local[idx] = len(local)
                parts.append(
                    f"{level_index[bdd.level(e)]},"
                    f"{(local[lo_i] << 1) | (low & 1)},"
                    f"{(local[hi_i] << 1) | (high & 1)};"
                )
            else:
                stack.append(e)
                if hi_i not in local:
                    stack.append(high)
                if lo_i not in local:
                    stack.append(low)

    for root in roots:
        visit(root)
    parts.append("|")
    parts.append(",".join(str((local[r >> 1] << 1) | (r & 1)) for r in roots))
    return "".join(parts).encode("ascii")


def _digest(prefix: str, blob: bytes) -> str:
    """Shorten ``blob`` to a 128-bit prefixed hex key."""
    return prefix + hashlib.sha256(blob).hexdigest()[:32]


def _symmetric(bdd: BDD, roots: Sequence[int], l1: int, l2: int) -> bool:
    """True iff every root is invariant under swapping levels ``l1, l2``."""
    for r in roots:
        a = bdd.cofactor(bdd.cofactor(r, l1, False), l2, True)
        b = bdd.cofactor(bdd.cofactor(r, l1, True), l2, False)
        if a != b:
            return False
    return True


def _tie_orders(
    bdd: BDD, roots: Sequence[int], group: list[int], levels: tuple[int, ...]
) -> list[tuple[int, ...]] | None:
    """Orderings of one signature-tie ``group`` worth enumerating.

    Support indices whose variables are pairwise (positively) symmetric in
    every root are interchangeable -- swapping them never changes the
    canonical bytes -- so only the *multiset permutations* of the symmetry
    classes are enumerated: every arrangement of class labels, including
    interleavings, with each class's members filling its slots in a fixed
    order.  Contiguity must NOT be assumed: a transform can skew a symmetry
    into a polarity-crossed one this detector misses, and the counterpart
    instance then enumerates interleaved arrangements -- both instances must
    cover the same distinct canonical functions or the minimum diverges.

    Returns None when the group is too large to enumerate (caller falls
    back to the raw key).
    """
    if len(group) > 8:
        return None
    blocks: list[list[int]] = []
    for i in group:
        for block in blocks:
            if _symmetric(bdd, roots, levels[block[0]], levels[i]):
                block.append(i)
                break
        else:
            blocks.append([i])
    if len(blocks) == 1:
        return [tuple(group)]
    labels: list[int] = []
    for b, block in enumerate(blocks):
        labels.extend([b] * len(block))
    seen: set[tuple[int, ...]] = set()
    orders: list[tuple[int, ...]] = []
    for seq in permutations(labels):
        if seq in seen:
            continue
        seen.add(seq)
        cursors = [iter(block) for block in blocks]
        orders.append(tuple(next(cursors[label]) for label in seq))
    return orders


def _candidates(
    bdd: BDD,
    roots: Sequence[int],
    levels: tuple[int, ...],
    cof: list[list[tuple[int, int]]],
    phase_fixed: list[int],
    phase_tied: list[int],
    max_candidates: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] | None:
    """Enumerate ``(perm, input_phase, output_phase)`` candidate transforms.

    Returns None (caller falls back) as soon as the candidate count
    provably exceeds ``max_candidates``.  Candidates are narrowed by
    transform-invariant signatures; see the module docstring.
    """
    n, m = len(levels), len(roots)
    half = 1 << (n - 1)
    if len(phase_tied) > 10 or (1 << len(phase_tied)) > max_candidates:
        return None

    collected: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []
    for tied_bits in product((0, 1), repeat=len(phase_tied)):
        phi = list(phase_fixed)
        for j, bit in zip(phase_tied, tied_bits):
            phi[j] = bit
        # Phase-adjusted cofactor counts: complementing output j maps a
        # count c over n-1 free variables to 2^(n-1) - c.
        sigs: list[tuple] = []
        psi_base: list[int] = []
        psi_tied: list[int] = []
        for i in range(n):
            a = tuple(
                half - cof[i][j][0] if phi[j] else cof[i][j][0] for j in range(m)
            )
            b = tuple(
                half - cof[i][j][1] if phi[j] else cof[i][j][1] for j in range(m)
            )
            if a < b:
                psi_base.append(0)
            elif b < a:
                psi_base.append(1)
            else:
                psi_base.append(0)
                psi_tied.append(i)
            sigs.append(min((a, b), (b, a)))
        if len(psi_tied) > 10 or (1 << len(psi_tied)) > max_candidates:
            return None

        # Sort support indices by signature; equal signatures form tie
        # groups whose internal order must be enumerated.
        order = sorted(range(n), key=lambda i: sigs[i])
        groups: list[list[int]] = []
        for i in order:
            if groups and sigs[groups[-1][0]] == sigs[i]:
                groups[-1].append(i)
            else:
                groups.append([i])
        expanded: list[list[tuple[int, ...]]] = []
        count = 1 << len(psi_tied)
        for g in groups:
            if len(g) == 1:
                expanded.append([tuple(g)])
                continue
            orders = _tie_orders(bdd, roots, g, levels)
            if orders is None:
                return None
            count *= len(orders)
            if count > max_candidates:
                return None
            expanded.append(orders)
        if len(collected) + count > max_candidates:
            return None

        for pick in product(*expanded):
            perm = tuple(i for part in pick for i in part)
            for psi_bits in product((0, 1), repeat=len(psi_tied)):
                psi_of = dict(zip(psi_tied, psi_bits))
                input_phase = tuple(
                    psi_of.get(i, psi_base[i]) for i in perm
                )
                collected.append((perm, input_phase, tuple(phi)))
    return iter(collected)


def _rebuild_bytes(
    bdd: BDD,
    roots: Sequence[int],
    levels: tuple[int, ...],
    perm: tuple[int, ...],
    input_phase: tuple[int, ...],
    output_phase: tuple[int, ...],
    node_budget: int,
) -> bytes | None:
    """Serialize the transformed vector, rebuilt in canonical variable order.

    A fresh scratch manager hosts variables ``x0..x(n-1)``
    in canonical order; the caller's DAG is transferred bottom-up with
    ``ite``, folding the input/output phases in.  ROBDD canonicity then
    makes the serialization a function of the transformed vector alone.
    Returns None when the rebuild exceeds ``node_budget`` scratch nodes.
    """
    n = len(levels)
    scratch = BDD()
    scratch.add_vars(n, prefix="x")
    pos_of_level = {levels[perm[p]]: p for p in range(n)}
    lit = [scratch.var(p) ^ input_phase[p] for p in range(n)]
    memo: dict[int, int] = {0: FALSE}

    def walk(e: int) -> int | None:
        idx = e >> 1
        got = memo.get(idx)
        if got is None:
            reg = e & ~1
            lo = walk(bdd.low(reg))
            if lo is None:
                return None
            hi = walk(bdd.high(reg))
            if hi is None:
                return None
            got = scratch.ite(lit[pos_of_level[bdd.level(reg)]], hi, lo)
            memo[idx] = got
            if scratch.num_nodes > node_budget:
                return None
        return got ^ (e & 1)

    canon_roots: list[int] = []
    for r, phase in zip(roots, output_phase):
        t = walk(r)
        if t is None:
            return None
        canon_roots.append(t ^ phase)
    return dag_bytes(scratch, canon_roots, {p: p for p in range(n)})


def canonical_form(
    bdd: BDD,
    roots: Sequence[int],
    *,
    max_candidates: int = MAX_CANDIDATES,
    node_budget: int = NODE_BUDGET,
) -> CanonicalForm:
    """Canonical fingerprint of the ordered function vector ``roots``.

    Exact forms of NPN-equivalent vectors (equal up to input permutation,
    input polarity and per-output polarity, after support normalization)
    share a key; inequivalent vectors share one only on a hash collision,
    which the cache layer's verification turns into a miss.
    """
    roots = list(roots)
    support: set[int] = set()
    for r in roots:
        support |= bdd.support(r)
    levels = tuple(sorted(support))
    n, m = len(levels), len(roots)

    if n == 0:
        # Constant vector: canonical phase maps every root to FALSE.
        output_phase = tuple(1 if r == TRUE else 0 for r in roots)
        return CanonicalForm(
            key=_digest("npn:", f"const:{m}".encode("ascii")),
            levels=(),
            perm=(),
            input_phase=(),
            output_phase=output_phase,
            exact=True,
        )

    scope = list(levels)
    half = 1 << (n - 1)
    counts = [_count(bdd, r, scope) for r in roots]

    # Output phase: canonical onset has at most half the minterms; exactly
    # half is a genuine tie and both phases are enumerated.
    phase_fixed = [0] * m
    phase_tied: list[int] = []
    for j, c in enumerate(counts):
        if c > half:
            phase_fixed[j] = 1
        elif c == half:
            phase_tied.append(j)

    # Raw (un-phased) cofactor counts; phase adjustment is linear so each
    # candidate phase vector reuses this one table.
    cof: list[list[tuple[int, int]]] = []
    for lvl in levels:
        rest = [x for x in levels if x != lvl]
        row = []
        for r in roots:
            c0 = _count(bdd, bdd.cofactor(r, lvl, False), rest)
            c1 = _count(bdd, bdd.cofactor(r, lvl, True), rest)
            row.append((c0, c1))
        cof.append(row)

    candidates = _candidates(
        bdd, roots, levels, cof, phase_fixed, phase_tied, max_candidates
    )
    if candidates is not None:
        best: tuple[bytes, tuple, tuple, tuple] | None = None
        for perm, input_phase, output_phase in candidates:
            blob = _rebuild_bytes(
                bdd, roots, levels, perm, input_phase, output_phase, node_budget
            )
            if blob is None:
                best = None
                break
            if best is None or blob < best[0]:
                best = (blob, perm, input_phase, output_phase)
        if best is not None:
            blob, perm, input_phase, output_phase = best
            return CanonicalForm(
                key=_digest("npn:", blob),
                levels=levels,
                perm=perm,
                input_phase=input_phase,
                output_phase=output_phase,
                exact=True,
            )

    # Fallback: support-normalized serialization in the caller's order.
    level_index = {lvl: i for i, lvl in enumerate(levels)}
    blob = dag_bytes(bdd, roots, level_index)
    return CanonicalForm(
        key=_digest("raw:", blob),
        levels=levels,
        perm=tuple(range(n)),
        input_phase=(0,) * n,
        output_phase=(0,) * m,
        exact=False,
    )


def _count(bdd: BDD, u: int, scope: list[int]) -> int:
    """Exact model count of ``u`` over ``scope`` (thin satcount wrapper)."""
    from repro.bdd.satcount import satcount

    return satcount(bdd, u, scope)
