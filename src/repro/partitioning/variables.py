"""Bound-set selection (variable partitioning).

The paper solves variable partitioning with the heuristic of [15] (an
untranslated workshop paper); what matters for IMODEC is only the *quality
signal*: a bad bound set shows up as a large number ``p`` of global classes,
which by Property 1 lower-bounds the number of decomposition functions and
lets the decomposition be aborted early.

We therefore score a candidate bound set by the tuple
``(p, sum of local class counts)`` -- fewer global classes first, then fewer
local classes -- and search either exhaustively (small inputs) or greedily
(grow the bound set one variable at a time, keeping the best-scoring
extension).

Every candidate is scored by one exact kernel
(:class:`repro.partitioning.kernel.BoundSetKernel`), which memoizes the
per-output class structure and the per-candidate score across candidates,
calls and both scorers.  Candidate enumeration order is fixed and ties
always resolve to the earliest candidate, so the chosen bound set equals a
plain first-minimum scan over :func:`score_bound_set`, the reference
scorer the tests compare the kernel against.
"""

from __future__ import annotations

import itertools
import random
from typing import Literal, Sequence

from repro import observe
from repro.bdd.manager import BDD
from repro.decompose.compat import local_partition
from repro.decompose.partitions import Partition
from repro.partitioning.kernel import BoundSetKernel, Triple, tabulable

Strategy = Literal["auto", "exhaustive", "greedy", "random"]
Scorer = Literal["compact", "shared"]

#: Maximum number of candidate bound sets evaluated exhaustively.
EXHAUSTIVE_BUDGET = 400


def score_bound_set(
    bdd: BDD,
    f_nodes: Sequence[int],
    bs_levels: Sequence[int],
    scorer: Scorer = "compact",
) -> tuple[int, int, int]:
    """Score of a candidate bound set -- lower is better.

    The primary key is always the number p of global classes (Property 1:
    it lower-bounds the number of decomposition functions).  Two secondary
    orderings are offered, because multi-output vectors pull in opposite
    directions:

    - ``compact``: fewer total local classes first (small per-output
      codewidths); dependence only breaks ties.
    - ``shared``: more (output, bound variable) interactions first -- bound
      variables many outputs depend on enable sharing, whereas variables
      private to one output make the vector decompose as singletons.

    The flow tries both and keeps the better decomposition.

    This is the reference scorer, built directly on Definition 1's local
    partitions; :func:`choose_bound_set` scores through
    :class:`~repro.partitioning.kernel.BoundSetKernel`, whose triples the
    tests require to agree with it.
    """
    parts = [local_partition(bdd, f, bs_levels) for f in f_nodes]
    glob = Partition.product_all(parts)
    bs_set = set(bs_levels)
    dependence = sum(len(bdd.support(f) & bs_set) for f in f_nodes)
    total_classes = sum(p.num_blocks for p in parts)
    if scorer == "shared":
        return glob.num_blocks, -dependence, total_classes
    if scorer == "compact":
        return glob.num_blocks, total_classes, -dependence
    raise ValueError(f"unknown scorer {scorer!r}")


def _first_minimum(triples: list[Triple], scorer: Scorer) -> int:
    """Index of the first candidate with the smallest ``scorer`` key."""
    if scorer == "compact":
        keys = [(p, classes, -dep) for p, classes, dep in triples]
    elif scorer == "shared":
        keys = [(p, -dep, classes) for p, classes, dep in triples]
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    return keys.index(min(keys))


def choose_bound_set(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    strategy: Strategy = "auto",
    rng: random.Random | None = None,
    scorer: Scorer = "compact",
    kernel: BoundSetKernel | None = None,
) -> tuple[list[int], list[int]]:
    """Pick a bound set of ``bound_size`` variables from ``input_levels``.

    Returns ``(bs_levels, fs_levels)``.  The free set is never empty: at
    most ``len(input_levels) - 1`` variables can be bound.  Candidates are
    scored by ``kernel``; pass the scope's kernel to reuse its memo (the
    winner's score can then be read back with ``kernel.score``), or leave
    it out to score with a kernel private to this call.

    Recorded under a ``choose_bound_set`` span (candidates scored, scoring
    route taken) when a tracer is installed; tracing never changes the
    chosen bound set.
    """
    levels = list(input_levels)
    n = len(levels)
    if not 1 <= bound_size < n:
        raise ValueError("need 1 <= bound_size < number of inputs")

    with observe.span("choose_bound_set"):
        if strategy == "auto":
            num_candidates = _n_choose_k(n, bound_size)
            strategy = "exhaustive" if num_candidates <= EXHAUSTIVE_BUDGET else "greedy"

        if strategy == "random":
            rng = rng or random.Random(0)
            bs = rng.sample(levels, bound_size)
        elif strategy in ("exhaustive", "greedy"):
            if kernel is None:
                kernel = BoundSetKernel()
            observe.add(
                "tt_fast_path" if tabulable(bdd, f_nodes) else "bdd_scoring_path"
            )
            if strategy == "exhaustive":
                combos = list(itertools.combinations(levels, bound_size))
                observe.add("candidates_scored", len(combos))
                triples = kernel.triples(bdd, f_nodes, combos)
                bs = list(combos[_first_minimum(triples, scorer)])
            else:
                bs = []
                remaining = list(levels)
                while len(bs) < bound_size:
                    observe.add("candidates_scored", len(remaining))
                    triples = kernel.triples(
                        bdd, f_nodes, [bs + [var] for var in remaining]
                    )
                    best_var = remaining[_first_minimum(triples, scorer)]
                    bs.append(best_var)
                    remaining.remove(best_var)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")

    bs_sorted = sorted(bs)
    fs = [lvl for lvl in levels if lvl not in set(bs_sorted)]
    return bs_sorted, fs


def _n_choose_k(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result
