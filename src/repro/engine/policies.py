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
:class:`PolicyDecision` into LUTs.

The two hard caps are the constants :data:`LADDER_CAP` and
:data:`PEEL_ROUNDS`, and they are not silent: when either cap truncates
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

#: Hard ceiling of the bound-size ladder (it widens from k towards k + 3).
LADDER_CAP = 12

#: Lone-output peel rounds per vector.
PEEL_ROUNDS = 3


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
    decision steers the emitter's recursion.  Implementations must be
    deterministic (the executor-equivalence guarantee relies on it).
    """

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan the decomposition of ``vector`` in ``bdd``."""
        ...


class LadderPeelPolicy:
    """The paper-faithful default: scorer race + bound ladder + lone peel."""

    def __init__(self, config: "FlowConfig") -> None:
        """Read k (the ladder's first bound size) and the scoring knobs
        from ``config``.

        The technology target supplies the candidate-ranking key (see
        :meth:`repro.targets.base.TechTarget.candidate_key`); for the
        reference ``xc3000-clb`` target it is exactly the historical
        tuple, keeping the default flow byte-identical.

        The policy owns one bound-set scoring kernel for its lifetime, so
        the second scorer of an attempt and every later attempt on the
        same vector reuse the scores already computed.  In a serial run
        output partitioning shares it too (``Engine.partition_kernel``),
        so an attempt that repeats a trial's search reads the trial's
        bound set from the kernel's winner memo.
        """
        self.config = config
        self.target = make_target(config.target)
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
                strict=config.strict,
                local_partitions=self.kernel.local_partitions(bdd, vec, bs_),
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

    # -- the two steps of a plan ----------------------------------------

    def _ladder(
        self, bdd: BDD, vec: list[int]
    ) -> tuple[MultiOutputDecomposition, list[int], list[int], int]:
        """Bound-size ladder: start at k and widen while no output makes
        progress, up to k + 3 -- the paper uses bound sets up to b = 8
        with k = 5 (Table 1, alu4), decomposing the d-functions
        recursively.  :data:`LADDER_CAP` bounds the widening.

        Returns the last attempt's ``(result, bs, progressing)`` and the
        bound size it used.
        """
        k = self.config.k
        ceiling = min(k + 3, LADDER_CAP)
        bound = k
        result, bs, progressing = self._attempt(bdd, vec, bound)
        while not progressing and bound < ceiling:
            bound += 2
            result, bs, progressing = self._attempt(bdd, vec, bound)
        if not progressing and ceiling < k + 3:
            observe.add("ladder_cap_truncations")
        return result, bs, progressing, bound

    def _peel(
        self,
        bdd: BDD,
        vector: list[int],
        result: MultiOutputDecomposition,
        bs: list[int],
        progressing: list[int],
        bound: int,
    ) -> PolicyDecision:
        """Lone-output peel: up to :data:`PEEL_ROUNDS` rounds, each peeling the
        outputs of ``result`` whose functions are all unshared and
        re-decomposing the rest at ``bound``.
        """
        kept = list(range(len(vector)))
        peeled: list[int] = []
        current = list(vector)
        for _ in range(PEEL_ROUNDS):
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

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan one step for ``vector``: climb the ladder, then peel loners."""
        return self._peel(bdd, vector, *self._ladder(bdd, vector))


class FlatLadderPolicy(LadderPeelPolicy):
    """Variant: bound ladder only, no lone-output peel at all.

    Keeps every output in the joint vector whatever the sharing looks
    like -- cheapest per step (no re-decompositions), and occasionally
    better when a "lone" output would re-join the pool one recursion
    level deeper.  The racing harness pits it against the peeling
    policy per group.
    """

    def decompose(self, bdd: BDD, vector: list[int]) -> PolicyDecision:
        """Plan one step: ladder until progress, never peel."""
        result, bs, progressing, bound = self._ladder(bdd, vector)
        return PolicyDecision(
            result=result,
            bs=bs,
            progressing=progressing,
            kept=list(range(len(vector))),
            bound=bound,
        )


def make_policy(config: "FlowConfig") -> DecomposePolicy:
    """Resolve ``FlowConfig.policy`` to an instance.

    A ``race:`` spec resolves to its *first* candidate.  The engine's
    own emitter never maps a raced group (a race always runs through
    :func:`repro.engine.worker.run_group`, which resolves each candidate
    separately), so that resolution only lets the emitter be built.
    """
    candidates = parse_policy_spec(config.policy)
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
    "flat-ladder": FlatLadderPolicy,
}
