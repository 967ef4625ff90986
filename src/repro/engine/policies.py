"""Decomposition policies: the flow's heuristics behind a typed interface.

The pre-engine flow buried three entangled heuristics in nested closures of
``mapping/flow.py``:

- the **scorer race**: try both bound-set scorers (``compact`` and
  ``shared``) and keep the better decomposition;
- the **bound-size ladder**: widen the bound set when no output makes
  progress (the paper uses bound sets up to b = 8 with k = 5, Table 1);
- the **lone-output peel**: outputs whose decomposition functions are all
  unshared gain nothing from the joint bound set -- peel them off for
  individual treatment and re-decompose the rest (a few rounds suffice).

They now live here as the default :class:`LadderPeelPolicy` behind the
:class:`DecomposePolicy` protocol.  A policy is a *pure planner* with
respect to the LUT network: it decomposes BDDs (allocating code variables
as a side effect) but never emits nodes, which is what makes it testable in
isolation and swappable via ``FlowConfig`` -- the emitter turns its
:class:`PolicyDecision` into engine tasks.

The historical hard caps are now configuration (``FlowConfig.ladder_cap``,
``FlowConfig.peel_rounds``) and no longer silent: when either cap truncates
the search, the policy bumps an observe counter
(``ladder_cap_truncations`` / ``peel_limit_truncations``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro import observe
from repro.bdd.manager import BDD
from repro.errors import DecompositionError
from repro.imodec.decomposer import MultiOutputDecomposition, decompose_multi
from repro.partitioning.kernel import BoundSetKernel
from repro.partitioning.variables import choose_bound_set
from repro.targets import make_target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flow imports engine)
    from repro.mapping.flow import FlowConfig

#: Prefix of a policy-portfolio race spec (``race:a,b,c``).
RACE_PREFIX = "race:"


def parse_policy_spec(spec: str) -> list[str]:
    """Split a ``FlowConfig.policy`` value into its candidate names.

    A plain name is a one-element portfolio; ``race:a,b,c`` races the
    named policies per output group (spec order is the deterministic
    tie-break order).  Empty entries and duplicates are rejected --
    racing a policy against itself can only waste a worker.  Candidate
    *existence* is checked by the caller against :data:`POLICIES`.
    """
    if not spec.startswith(RACE_PREFIX):
        return [spec]
    names = [name.strip() for name in spec[len(RACE_PREFIX):].split(",")]
    if not names or any(not name for name in names):
        raise ValueError(
            f"malformed race spec {spec!r} "
            "(want race:<policy>[,<policy>...])"
        )
    if len(set(names)) != len(names):
        raise ValueError(f"race spec {spec!r} names a policy twice")
    return names


@dataclass
class PolicyDecision:
    """What a policy decided for one pending vector.

    Positions refer to the vector *as passed in*; ``kept`` maps the final
    (possibly peeled-down) vector back to those positions.

    Attributes:
        result: decomposition of the kept sub-vector (None when every
            output was peeled away).
        bs: the bound-set levels of ``result``.
        progressing: indices into ``kept`` whose codewidth beat their
            bound-set support (the rest fall back to a Shannon split).
        kept: original positions remaining in the final vector, in order.
        peeled: original positions peeled off for individual emission,
            in peel order (round by round, ascending within a round).
        bound: the ladder's final bound size.
    """

    result: MultiOutputDecomposition | None
    bs: list[int] = field(default_factory=list)
    progressing: list[int] = field(default_factory=list)
    kept: list[int] = field(default_factory=list)
    peeled: list[int] = field(default_factory=list)
    bound: int = 0


class DecomposePolicy(Protocol):
    """Strategy interface: plan the decomposition of one pending vector.

    ``vector`` holds functions whose support exceeds ``k``; the returned
    decision steers the emitter's task expansion.  Implementations must be
    deterministic (the executor-equivalence guarantee relies on it).
    """

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan the decomposition of ``vector`` in ``bdd``."""
        ...


class LadderPeelPolicy:
    """The paper-faithful default: scorer race + bound ladder + lone peel."""

    def __init__(self, config: "FlowConfig") -> None:
        """Read the ladder/peel knobs from ``config`` (k, caps, rounds).

        The technology target supplies the candidate-ranking key (see
        :meth:`repro.targets.base.TechTarget.candidate_key`); for the
        reference ``xc3000-clb`` target it is exactly the historical
        tuple, keeping the default flow byte-identical.

        The policy owns one bound-set scoring kernel for its lifetime, so
        the second scorer of an attempt and every later attempt on the
        same vector reuse the scores already computed.
        """
        self.config = config
        self.target = make_target(
            getattr(config, "target", None) or f"lut-{config.k}"
        )
        self.kernel = BoundSetKernel()

    # -- one decomposition attempt -------------------------------------

    def _attempt(
        self, bdd: BDD, vec: list[int], bound: int
    ) -> tuple[MultiOutputDecomposition, list[int], list[int]]:
        """Decompose ``vec`` with a bound set of ``bound``, racing both
        bound-set scorers (compact and shared) and keeping the better
        outcome: progress first, then fewer pool functions, then fewer
        total composition inputs.

        The support union is computed once per attempt (not once per
        scorer, as the pre-engine flow did), and when both scorers select
        the same bound set the second -- by determinism, identical --
        decomposition is skipped entirely (``scorer_race_skips`` counter).
        """
        config = self.config
        union = sorted(set().union(*(bdd.support(f) for f in vec)))
        bound = min(bound, len(union) - 1)
        best = None
        best_key = None
        tried: set[tuple[int, ...]] = set()
        scorers = ("compact",) if len(vec) == 1 else ("compact", "shared")
        for scorer in scorers:
            bs_, fs_ = choose_bound_set(
                bdd, vec, union, bound,
                strategy=config.var_strategy, scorer=scorer, kernel=self.kernel,
            )
            if tuple(bs_) in tried:
                observe.add("scorer_race_skips")
                continue
            tried.add(tuple(bs_))
            res = decompose_multi(
                bdd, vec, bs_, fs_,
                tie_break=config.tie_break,
                dc_fill=config.dc_fill,
                strict=config.strict,
            )
            prog = res.progressing_outputs(bdd, vec, bs_)
            g_inputs = res.composition_inputs(bdd, vec, bs_)
            key = self.target.candidate_key(prog, res.num_functions, g_inputs)
            if best_key is None or key < best_key:
                best, best_key = (res, bs_, prog), key
        if best is None:
            raise DecompositionError(
                f"no scorer produced a decomposition for a {len(vec)}-output "
                f"vector with bound size {bound}"
            )
        return best

    # -- the full plan --------------------------------------------------

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan one step for ``vector``: decompose, peel loners, or split."""
        config = self.config
        # Bound-size ladder: start at the configured size (default k) and
        # widen while no output makes progress -- the paper uses bound sets
        # up to b = 8 with k = 5 (Table 1, alu4), decomposing the
        # d-functions recursively.  ``ladder_cap`` bounds the widening.
        base_bound = min(config.bound_size or config.k, config.k)
        max_bound = max(base_bound, config.bound_size or 0, config.k + 3)
        ceiling = min(max_bound, config.ladder_cap)
        bound = base_bound
        result, bs, progressing = self._attempt(bdd, vector, bound)
        while not progressing and bound < ceiling:
            bound += 2
            result, bs, progressing = self._attempt(bdd, vector, bound)
        if not progressing and ceiling < max_bound:
            observe.add("ladder_cap_truncations")

        # Lone-output peel: up to ``peel_rounds`` rounds.
        kept = list(range(len(vector)))
        peeled: list[int] = []
        current = list(vector)
        for _ in range(config.peel_rounds):
            if len(current) <= 1:
                break
            lone = result.lone_outputs()
            if not lone:
                break
            peeled.extend(kept[j] for j in lone)
            keep = [j for j in range(len(current)) if j not in set(lone)]
            kept = [kept[j] for j in keep]
            current = [current[j] for j in keep]
            if not current:
                return PolicyDecision(
                    result=None, kept=[], peeled=peeled, bound=bound
                )
            result, bs, progressing = self._attempt(bdd, current, bound)
        else:
            # Rounds exhausted with the limit binding: more lone outputs
            # would have been peeled next round.
            if len(current) > 1 and result.lone_outputs():
                observe.add("peel_limit_truncations")

        return PolicyDecision(
            result=result,
            bs=bs,
            progressing=progressing,
            kept=kept,
            peeled=peeled,
            bound=bound,
        )


class PeelFirstPolicy(LadderPeelPolicy):
    """Variant: peel lone outputs *before* climbing the bound ladder.

    The default policy widens the bound set until some output progresses
    and only then peels; this one peels unshared outputs at the base
    bound first -- a narrower joint vector often progresses without any
    widening, trading ladder attempts (each a full subset-DP) for peel
    re-decompositions.  Same knobs, same truncation counters.
    """

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan one step: peel loners first, then ladder the remainder."""
        config = self.config
        base_bound = min(config.bound_size or config.k, config.k)
        max_bound = max(base_bound, config.bound_size or 0, config.k + 3)
        ceiling = min(max_bound, config.ladder_cap)
        bound = base_bound
        result, bs, progressing = self._attempt(bdd, vector, bound)

        kept = list(range(len(vector)))
        peeled: list[int] = []
        current = list(vector)
        for _ in range(config.peel_rounds):
            if len(current) <= 1:
                break
            lone = result.lone_outputs()
            if not lone:
                break
            peeled.extend(kept[j] for j in lone)
            keep = [j for j in range(len(current)) if j not in set(lone)]
            kept = [kept[j] for j in keep]
            current = [current[j] for j in keep]
            if not current:
                return PolicyDecision(
                    result=None, kept=[], peeled=peeled, bound=bound
                )
            result, bs, progressing = self._attempt(bdd, current, bound)
        else:
            if len(current) > 1 and result.lone_outputs():
                observe.add("peel_limit_truncations")

        while not progressing and bound < ceiling:
            bound += 2
            result, bs, progressing = self._attempt(bdd, current, bound)
        if not progressing and ceiling < max_bound:
            observe.add("ladder_cap_truncations")

        return PolicyDecision(
            result=result,
            bs=bs,
            progressing=progressing,
            kept=kept,
            peeled=peeled,
            bound=bound,
        )


class FlatLadderPolicy(LadderPeelPolicy):
    """Variant: bound ladder only, no lone-output peel at all.

    Keeps every output in the joint vector whatever the sharing looks
    like -- cheapest per step (no re-decompositions), and occasionally
    better when a "lone" output would re-join the pool one recursion
    level deeper.  The racing harness pits it against the peeling
    policies per group.
    """

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan one step: ladder until progress, never peel."""
        config = self.config
        base_bound = min(config.bound_size or config.k, config.k)
        max_bound = max(base_bound, config.bound_size or 0, config.k + 3)
        ceiling = min(max_bound, config.ladder_cap)
        bound = base_bound
        result, bs, progressing = self._attempt(bdd, vector, bound)
        while not progressing and bound < ceiling:
            bound += 2
            result, bs, progressing = self._attempt(bdd, vector, bound)
        if not progressing and ceiling < max_bound:
            observe.add("ladder_cap_truncations")
        return PolicyDecision(
            result=result,
            bs=bs,
            progressing=progressing,
            kept=list(range(len(vector))),
            peeled=[],
            bound=bound,
        )


def make_policy(config: "FlowConfig", name: str | None = None) -> DecomposePolicy:
    """Resolve a policy name (default ``FlowConfig.policy``) to an instance.

    A ``race:`` spec resolves to its *first* candidate -- that is the
    policy the parent engine's own emitter uses for paths that cannot
    race (the degraded in-parent fallback); the executors run the full
    portfolio through :func:`parse_policy_spec` themselves.
    """
    spec = name if name is not None else getattr(config, "policy", "ladder-peel")
    candidates = parse_policy_spec(spec)
    factory = POLICIES.get(candidates[0])
    if factory is None:
        raise ValueError(
            f"unknown decomposition policy {candidates[0]!r} "
            f"(have: {sorted(POLICIES)})"
        )
    return factory(config)


#: Registry of named policies (``FlowConfig.policy`` values).  Insertion
#: order is the deterministic tie-break order of policy racing.
POLICIES = {
    "ladder-peel": LadderPeelPolicy,
    "peel-first": PeelFirstPolicy,
    "flat-ladder": FlatLadderPolicy,
}
