"""Output partitioning: grouping functions into vectors f (Section 7).

The paper's greedy heuristic, verbatim: initialize the vector with the
function having the most inputs; repeatedly combine the function sharing the
most inputs with the current vector and run a trial multiple-output
decomposition; if the *decomposition gain* (shared functions saved compared
to decomposing every output alone, ``sum c_k - q``) decreases, undo the
combination.  Repeat until no suitable function remains, then start the next
group with the leftovers.

Trial decompositions dominate the run time (the paper blames alu2's 902
seconds on exactly this); the ``max_group`` cap and the :data:`MAX_GLOBALS`
abort are the paper's "limit m" safety valve.  The greedy reads one bit
from a trial -- does the gain beat the group's current gain? -- so each
trial computes only that, exactly:

- the gain to beat becomes a bound on the trial's pool size ``q``, and the
  decomposition stops as soon as ``q`` provably reaches it
  (:func:`trial_gain`, ``decompose_multi(max_functions=...)``);
- a scorer that picks the bound set the other scorer already tried is
  skipped;
- the local partitions come from the kernel that scored the bound set, and
  no composition function or d-function BDD is built.

Every chosen group is the same as with unbounded trials.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

from repro import observe
from repro.bdd.manager import BDD
from repro.decompose.compat import codewidth
from repro.imodec.decomposer import decompose_multi
from repro.imodec.globalpart import lower_bound_q
from repro.partitioning.kernel import BoundSetKernel
from repro.partitioning.variables import choose_bound_set

#: Property-1 abort threshold of :func:`partition_outputs`: a trial whose
#: global partition has more classes is not worth decomposing together.
MAX_GLOBALS = 64


@dataclass
class TrialResult:
    """Outcome of a trial decomposition of one candidate group."""

    gain: int  # sum(c_k) - q
    num_globals: int


def solo_codewidth(
    bdd: BDD,
    f: int,
    input_levels: Sequence[int],
    bound_size: int,
    kernel: BoundSetKernel,
) -> int | None:
    """Codewidth of a single output with its *own* best bound set.

    None when the support is too small for a non-trivial decomposition.
    """
    support = bdd.support(f)
    usable = [lvl for lvl in input_levels if lvl in support]
    if len(usable) <= bound_size:
        return None
    bs, _ = choose_bound_set(bdd, [f], usable, bound_size, kernel=kernel)
    # For a single output the kernel's class total is its local class count.
    return codewidth(kernel.score(bdd, [f], bs)[1])


def trial_gain(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_globals: int | None = None,
    solo_costs: Sequence[int] | None = None,
    kernel: BoundSetKernel | None = None,
    min_gain: int | None = None,
) -> TrialResult | None:
    """Gain of decomposing the given vector together, against solo baselines.

    The gain is ``sum_k c_k(own bound set) - q(shared bound set)`` -- exactly
    the paper's "decomposition gain in comparison to single-output
    decomposition of each f_k".  A shared bound set that degrades the
    individual codewidths therefore shows up as a reduced or negative gain.
    Returns None when the vector is not worth decomposing together (support
    too small, or p explodes past ``max_globals`` -- the Property 1 abort).

    Both bound-set scorers are tried and the first of the best gains is
    kept.  ``min_gain`` is the gain to beat: the call then returns None
    exactly when the unbounded call returns None or a gain ``<= min_gain``,
    and otherwise the identical result.  Each scorer's decomposition is
    bounded by ``q < sum_k c_k - max(min_gain, best gain so far)``, the
    pool size below which it would change the outcome, and stops (the
    ``trial_aborts`` counter) once it provably cannot get there.
    """
    supports = set()
    for f in f_nodes:
        supports |= bdd.support(f)
    usable = [lvl for lvl in input_levels if lvl in supports]
    if len(usable) <= bound_size:
        return None
    kernel = kernel if kernel is not None else BoundSetKernel()
    if solo_costs is None:
        maybe = [
            solo_codewidth(bdd, f, input_levels, bound_size, kernel=kernel)
            for f in f_nodes
        ]
        if any(c is None for c in maybe):
            return None
        solo_costs = [c for c in maybe if c is not None]
    unshared = sum(solo_costs)
    # Try both bound-set scorers (see repro.partitioning.variables) and keep
    # the better gain -- mirroring the flow's own dual attempt.
    best: TrialResult | None = None
    first_bs: list[int] | None = None
    for scorer in ("compact", "shared") if len(f_nodes) > 1 else ("compact",):
        observe.add("trial_decompositions")
        bs, fs = choose_bound_set(
            bdd, f_nodes, usable, bound_size, scorer=scorer, kernel=kernel
        )
        if bs == first_bs:
            # Same bound set, same decomposition: it cannot beat the first.
            observe.add("scorer_race_skips")
            continue
        first_bs = bs
        p = kernel.score(bdd, f_nodes, bs)[0]
        if max_globals is not None and p > max_globals:
            continue
        # A kept result already beats min_gain (see below).
        to_beat = min_gain if best is None else best.gain
        max_functions = None if to_beat is None else unshared - to_beat
        if max_functions is not None and lower_bound_q(p) >= max_functions:
            observe.add("trial_aborts")
            continue
        # The trial decomposition itself (no g construction: only q needed).
        result = decompose_multi(
            bdd, list(f_nodes), bs, fs, build_g=False,
            local_partitions=kernel.local_partitions(bdd, f_nodes, bs),
            max_functions=max_functions,
        )
        if result is None:
            observe.add("trial_aborts")
            continue
        # Within the bound, the gain beats both min_gain and best.
        best = TrialResult(
            gain=unshared - result.num_functions,
            num_globals=result.num_global_classes,
        )
    return best


def shared_inputs(bdd: BDD, f: int, group_support: set[int]) -> int:
    """Number of support variables ``f`` shares with the group."""
    return len(bdd.support(f) & group_support)


def partition_outputs(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_group: int | None = None,
    kernel: BoundSetKernel | None = None,
) -> list[list[int]]:
    """Group output indices into decomposition vectors (the paper's heuristic).

    Every bound-set search of the call shares one
    :class:`~repro.partitioning.kernel.BoundSetKernel`: ``kernel`` when
    given, which keeps its memo for the caller (a serial run passes the
    decomposition policy's, whose searches then start from the trials'
    winners), else a private one, emptied on return.

    Recorded under a ``partition_outputs`` span (trial-decomposition counts,
    trials the gain bound stopped, skipped duplicate scorers, resulting
    group shapes) when a tracer is installed.
    """
    with observe.span("partition_outputs"), (
        nullcontext(kernel) if kernel is not None else BoundSetKernel()
    ) as kernel:
        groups = _partition_outputs_impl(
            bdd, f_nodes, input_levels, bound_size, max_group, kernel
        )
        observe.add("groups_formed", len(groups))
        observe.gauge("largest_group", max((len(g) for g in groups), default=0))
        return groups


def _partition_outputs_impl(
    bdd: BDD,
    f_nodes: Sequence[int],
    input_levels: Sequence[int],
    bound_size: int,
    max_group: int | None,
    kernel: BoundSetKernel,
) -> list[list[int]]:
    remaining = list(range(len(f_nodes)))
    solo: dict[int, int | None] = {
        k: solo_codewidth(bdd, f_nodes[k], input_levels, bound_size, kernel=kernel)
        for k in remaining
    }
    groups: list[list[int]] = []
    # outputs too small for decomposition stay alone
    for k in list(remaining):
        if solo[k] is None:
            groups.append([k])
            remaining.remove(k)
    while remaining:
        # seed: function with the maximum number of inputs
        seed = max(remaining, key=lambda k: len(bdd.support(f_nodes[k])))
        group = [seed]
        remaining.remove(seed)
        group_support = set(bdd.support(f_nodes[seed]))
        current_gain = 0  # solo decomposition of the seed has zero gain
        while remaining:
            if max_group is not None and len(group) >= max_group:
                break
            candidates = sorted(
                remaining,
                key=lambda k: shared_inputs(bdd, f_nodes[k], group_support),
                reverse=True,
            )
            candidate = candidates[0]
            if shared_inputs(bdd, f_nodes[candidate], group_support) == 0:
                break
            members = group + [candidate]
            trial = trial_gain(
                bdd,
                [f_nodes[k] for k in members],
                input_levels,
                bound_size,
                MAX_GLOBALS,
                solo_costs=[solo[k] for k in members],  # type: ignore[misc]
                kernel=kernel,
                min_gain=current_gain,
            )
            if trial is None:
                # the paper: if the gain decreased, the combination is undone
                break
            group.append(candidate)
            remaining.remove(candidate)
            group_support |= bdd.support(f_nodes[candidate])
            current_gain = trial.gain
        groups.append(sorted(group))
    return groups
