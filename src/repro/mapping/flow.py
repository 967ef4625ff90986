"""The decomposition-based LUT synthesis flow.

This is the program around IMODEC (Section 7): collapse the network, group
the outputs into vectors, pick bound sets, decompose recursively until every
produced function fits a ``k``-input LUT, and emit the LUT netlist.

Two modes reproduce the two columns of Table 2:

- ``multi``  -- multiple-output decomposition: outputs are grouped by the
  paper's greedy heuristic and each vector is decomposed by the implicit
  algorithm, sharing preferable decomposition functions across outputs.
- ``single`` -- classical single-output decomposition of every output in
  isolation (common subfunctions are *not* recognized), the baseline the
  paper reports a 38 % average CLB reduction against.

Functions that do not shrink under functional decomposition fall back to a
Shannon split (a 3-input mux LUT plus the two cofactors), which guarantees
termination for arbitrary functions.

The decomposition work itself runs on the task-graph engine
(:mod:`repro.engine`): every step is an explicit task drained by the
executor named in ``FlowConfig.executor`` -- ``serial`` replays the
historical recursion order bit-identically, ``process`` fans independent
output groups out to worker processes, ``remote`` fans them out across
hosts through a broker (``FlowConfig.broker``; see
``docs/DISTRIBUTED.md``).  The heuristics live behind
``FlowConfig.policy`` (see :mod:`repro.engine.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro import observe
from repro.bdd.backend import BACKEND_NAMES, DEFAULT_BACKEND
from repro.bdd.manager import FALSE, TRUE
from repro.engine import EXECUTORS, Engine, EngineStats
from repro.engine.faults import FaultPlan
from repro.engine.policies import POLICIES, parse_policy_spec
from repro.imodec.lmax import TieBreak
from repro.mapping.lut import check_k_feasible
from repro.network.collapse import collapse
from repro.network.network import Network
from repro.observe.stats import BddStats
from repro.partitioning.outputs import partition_outputs
from repro.partitioning.variables import Strategy
from repro.targets import AUTO_TARGET, resolve_target


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the synthesis flow."""

    k: int | None = None  # LUT input width (None: from target; default 5)
    target: str = AUTO_TARGET  # technology target (repro.targets registry)
    mode: Literal["multi", "single"] = "multi"
    bound_size: int | None = None  # default: k (capped by support size)
    tie_break: TieBreak = "balanced"
    var_strategy: Strategy = "auto"
    use_output_partitioning: bool = True
    output_grouping: Literal["greedy", "fast"] = "greedy"
    dc_fill: Literal["zero", "nearest"] = "zero"  # unused-code filling in g
    strict: bool = False  # one-code-per-class baseline (refs [10, 11])
    max_group: int | None = None  # the paper's "limit m" valve
    max_globals: int | None = 64  # Property-1 abort threshold
    jobs: int = 1  # engine process-pool width (--executor process)
    executor: Literal["serial", "process", "remote"] = "serial"
    policy: str = "ladder-peel"  # decomposition heuristic (engine.policies)
    ladder_cap: int = 12  # hard ceiling of the bound-size ladder
    peel_rounds: int = 3  # lone-output peel rounds per vector
    bdd_backend: Literal["object", "arena"] = DEFAULT_BACKEND
    auto_reorder: bool = False  # growth-triggered sifting between groups
    reorder_factor: float = 4.0  # trigger: nodes >= factor * post-build size

    # -- reliability (process executor; see docs/RELIABILITY.md) --------
    task_timeout: float | None = None  # per-group wall-clock ceiling (s)
    task_retries: int = 2  # retries per group after the first failure
    retry_backoff: float = 0.05  # base of the exponential retry backoff (s)
    degrade_to_serial: bool = True  # failing groups fall back in-parent
    fault_plan: FaultPlan | None = None  # deterministic fault injection
    checkpoint_path: str | None = None  # write completed groups here
    checkpoint_every: int = 1  # flush period, in merged groups
    resume_from: str | None = None  # replay a checkpoint file

    # -- persistent result cache (see docs/CACHING.md) ------------------
    cache_db: str | None = None  # sqlite store of canonical group results

    # -- distributed execution (see docs/DISTRIBUTED.md) ----------------
    broker: str | None = None  # HOST:PORT of the remote-executor broker

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 3:
            raise ValueError("k < 3 cannot host the Shannon fallback mux")
        # Normalize the resolver pseudo-target to a concrete name and pin
        # k to the target's cell width, so the semantic config digest
        # (checkpoints, result cache) never sees "auto"/None; an explicit
        # k must agree with a concrete target.
        name, k = resolve_target(self.target, self.k)
        object.__setattr__(self, "target", name)
        object.__setattr__(self, "k", k)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (have: {sorted(EXECUTORS)})"
            )
        candidates = parse_policy_spec(self.policy)
        for candidate in candidates:
            if candidate not in POLICIES:
                raise ValueError(
                    f"unknown policy {candidate!r} (have: {sorted(POLICIES)})"
                )
        if len(candidates) > 1:
            if self.auto_reorder:
                raise ValueError(
                    "a race: policy needs auto_reorder off (candidates run "
                    "through the worker path, which has no group-boundary "
                    "reorder hook)"
                )
            if self.fault_plan is not None:
                raise ValueError(
                    "a race: policy cannot be combined with fault injection "
                    "(fault plans are keyed by group ordinal; racing "
                    "multiplies the submissions per group)"
                )
        if self.ladder_cap < self.k:
            raise ValueError("ladder_cap below k leaves no ladder at all")
        if self.peel_rounds < 0:
            raise ValueError("peel_rounds must be >= 0")
        if self.bdd_backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown bdd backend {self.bdd_backend!r} "
                f"(have: {list(BACKEND_NAMES)})"
            )
        if self.reorder_factor <= 1.0:
            raise ValueError("reorder_factor must be > 1.0")
        if self.auto_reorder and self.executor != "serial":
            raise ValueError(
                "auto_reorder needs the serial executor (workers map groups "
                "on private managers with no shared growth to watch)"
            )
        if self.executor == "remote" and self.broker is None:
            raise ValueError(
                "executor 'remote' needs a broker address "
                "(FlowConfig.broker / --broker HOST:PORT)"
            )
        if self.broker is not None and self.executor != "remote":
            raise ValueError(
                "broker is only meaningful with executor='remote'"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.cache_db is not None and self.auto_reorder:
            raise ValueError(
                "cache_db cannot be combined with auto_reorder (the cached "
                "drain replays groups through the worker path, which has no "
                "group-boundary reorder hook)"
            )


@dataclass
class GroupRecord:
    """Statistics of one multiple-output decomposition step."""

    outputs: int  # m
    num_globals: int  # p
    num_functions: int  # q
    num_functions_unshared: int  # sum c_k


@dataclass
class FlowResult:
    """A mapped LUT network plus bookkeeping."""

    network: Network
    output_signals: dict[str, str]
    config: FlowConfig
    records: list[GroupRecord] = field(default_factory=list)
    bdd_stats: BddStats = field(default_factory=BddStats)
    engine_stats: EngineStats = field(default_factory=EngineStats)
    race_winners: dict[str, int] = field(default_factory=dict)

    @property
    def num_luts(self) -> int:
        return len(self.network.nodes)

    @property
    def max_group_outputs(self) -> int:
        """Largest decomposed vector (the m column of Table 2)."""
        return max((r.outputs for r in self.records), default=0)

    @property
    def max_globals(self) -> int:
        """Largest number of global classes (the p column of Table 2)."""
        return max((r.num_globals for r in self.records), default=0)


@dataclass
class PreparedRun:
    """A network collapsed, grouped and ready for the engine.

    The batch layer (:mod:`repro.engine.batch`) uses this split to enqueue
    the groups of many networks on one shared queue before collecting any
    of them; :func:`synthesize` is prepare + run + finish for one network.
    """

    network: Network
    config: FlowConfig
    engine: Engine
    out_names: list[str]
    groups: list[list[int]]  # output indices per engine group
    group_nodes: list[list[int]]  # BDD roots per engine group

    def finish(self, group_signals: list[list[str]]) -> FlowResult:
        """Bind output signals and package the :class:`FlowResult`."""
        output_signals: dict[str, str] = {}
        for group, signals in zip(self.groups, group_signals):
            for i, sig in zip(group, signals):
                output_signals[self.out_names[i]] = sig
        lut = self.engine.context.lut
        lut.set_outputs(sorted(set(output_signals.values())))
        check_k_feasible(lut, self.config.k)
        return FlowResult(
            network=lut,
            output_signals=output_signals,
            config=self.config,
            records=self.engine.context.records,
            bdd_stats=BddStats.from_manager(self.engine.context.bdd),
            engine_stats=self.engine.stats(),
            race_winners=dict(self.engine.race_winners),
        )


def prepare_synthesis(network: Network, config: FlowConfig) -> PreparedRun:
    """Collapse a network and partition its outputs into engine groups."""
    with observe.span("collapse"):
        collapsed = collapse(network, backend=config.bdd_backend)
        observe.watch(collapsed.bdd)
    bdd = collapsed.bdd

    lut = Network("mapped")
    signal_of_level: dict[int, str] = {}
    for name, level in collapsed.input_levels.items():
        lut.add_input(name)
        signal_of_level[level] = name
    engine = Engine(bdd, config, lut, signal_of_level)

    out_names = list(network.outputs)
    out_nodes = [collapsed.output_nodes[name] for name in out_names]

    if config.mode == "multi" and config.use_output_partitioning:
        nontrivial = [
            i for i, f in enumerate(out_nodes) if len(bdd.support(f)) > config.k
        ]
        if config.output_grouping == "fast":
            from repro.partitioning.outputs import partition_outputs_fast

            with observe.span("partition_outputs"):
                groups_idx = partition_outputs_fast(
                    bdd,
                    [out_nodes[i] for i in nontrivial],
                    max_group=config.max_group,
                )
        else:
            groups_idx = partition_outputs(
                bdd,
                [out_nodes[i] for i in nontrivial],
                sorted(collapsed.input_levels.values()),
                min(config.bound_size or config.k, config.k),
                max_group=config.max_group,
                max_globals=config.max_globals,
            )
        groups = [[nontrivial[i] for i in g] for g in groups_idx]
        grouped = {i for g in groups for i in g}
        groups.extend([[i] for i in range(len(out_nodes)) if i not in grouped])
    else:
        groups = [[i] for i in range(len(out_nodes))]

    return PreparedRun(
        network=network,
        config=config,
        engine=engine,
        out_names=out_names,
        groups=groups,
        group_nodes=[[out_nodes[i] for i in group] for group in groups],
    )


def synthesize(network: Network, config: FlowConfig | None = None) -> FlowResult:
    """Run the full flow on a combinational network."""
    config = config or FlowConfig()
    prep = prepare_synthesis(network, config)
    with observe.span("map"):
        observe.add("groups", len(prep.groups))
        group_signals = prep.engine.run_groups(prep.group_nodes)
        return prep.finish(group_signals)


def verify_flow(original: Network, result: FlowResult) -> bool:
    """Exact equivalence check of the mapped network against the original.

    Both networks are collapsed over the same primary-input manager and the
    output BDD nodes are compared -- canonicity makes this a proof, not a
    simulation.
    """
    reference = collapse(original)
    bdd = reference.bdd
    values: dict[str, int] = {
        name: bdd.var(level) for name, level in reference.input_levels.items()
    }
    lut_net = result.network
    for name in lut_net.topological_order():
        node = lut_net.nodes[name]
        acc = FALSE
        for cube in node.cover.cubes:
            term = TRUE
            for j, polarity in cube.literals().items():
                fn = values[node.fanins[j]]
                term = bdd.apply_and(term, fn if polarity else bdd.apply_not(fn))
            acc = bdd.apply_or(acc, term)
        values[name] = acc
    for out_name, signal in result.output_signals.items():
        if values[signal] != reference.output_nodes[out_name]:
            return False
    return True


def verify_flow_sim(
    original: Network, result: FlowResult, num_random: int = 256, seed: int = 0
) -> bool:
    """Simulation-based equivalence check for networks too large to collapse.

    Exhaustive for small input counts, seeded random vectors otherwise (the
    starred Table 2 circuits use this path).
    """
    from repro.network.simulate import input_vectors

    for vector in input_vectors(original.inputs, num_random, seed):
        expected = original.evaluate_outputs(vector)
        got = result.network.evaluate(vector)
        for out_name, signal in result.output_signals.items():
            if got[signal] != expected[out_name]:
                return False
    return True
