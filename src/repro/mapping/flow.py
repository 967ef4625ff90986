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

The decomposition itself runs in the engine (:mod:`repro.engine`): each
output group is mapped by the recursion
:meth:`repro.engine.emitter.VectorEmitter.map_vector`, wherever the
executor named in ``FlowConfig.executor`` runs it -- ``serial`` in this
process, ``process`` in worker processes, ``remote`` across hosts through
a broker (``FlowConfig.broker``; see ``docs/DISTRIBUTED.md``).  Every
executor emits the same bytes.  The heuristics live behind
``FlowConfig.policy`` (see :mod:`repro.engine.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

from repro import observe
from repro.engine import EXECUTORS, Engine, EngineStats
from repro.engine.faults import FaultPlan
from repro.engine.policies import LADDER_CAP, POLICIES, parse_policy_spec
from repro.imodec.lmax import TieBreak
from repro.mapping.lut import check_k_feasible
from repro.network.collapse import collapse
from repro.network.network import Network
from repro.observe.stats import BddStats
from repro.partitioning.outputs import partition_outputs
from repro.partitioning.variables import Strategy
from repro.targets import AUTO_TARGET, resolve_target
from repro.verify import network_bdds

#: The two columns of Table 2 (see the module docstring).
Mode = Literal["multi", "single"]


@dataclass(frozen=True)
class FlowConfig:
    """Knobs of the synthesis flow."""

    k: int | None = None  # LUT input width (None: from target; default 5)
    target: str = AUTO_TARGET  # technology target (repro.targets registry)
    mode: Mode = "multi"
    tie_break: TieBreak = "balanced"
    var_strategy: Strategy = "auto"
    use_output_partitioning: bool = True
    strict: bool = False  # one-code-per-class baseline (refs [10, 11])
    max_group: int | None = None  # the paper's "limit m" valve
    jobs: int = 1  # engine process-pool width (--executor process)
    executor: Literal["serial", "process", "remote"] = "serial"
    policy: str = "ladder-peel"  # decomposition heuristic (engine.policies)

    # -- reliability (every executor; see docs/RELIABILITY.md) ----------
    task_timeout: float | None = None  # per-group wall-clock ceiling (s)
    task_retries: int = 2  # retries per group after the first failure
    fault_plan: FaultPlan | None = None  # deterministic fault injection

    # -- persistent result cache (see docs/CACHING.md) ------------------
    cache_db: str | None = None  # sqlite store of group results

    # -- distributed execution (see docs/DISTRIBUTED.md) ----------------
    broker: str | None = None  # HOST:PORT of the remote-executor broker

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 3:
            raise ValueError("k < 3 cannot host the Shannon fallback mux")
        # Normalize the resolver pseudo-target to a concrete name and pin
        # k to the target's cell width, so the semantic config digest
        # (the result cache's key) never sees "auto"/None; an explicit
        # k must agree with a concrete target.
        name, k = resolve_target(self.target, self.k)
        object.__setattr__(self, "target", name)
        object.__setattr__(self, "k", k)
        if self.k > LADDER_CAP:
            raise ValueError(
                f"k = {self.k} is above the bound-size ladder's ceiling "
                f"(LADDER_CAP = {LADDER_CAP})"
            )
        for knob, literal in (
            ("mode", Mode), ("tie_break", TieBreak), ("var_strategy", Strategy)
        ):
            value = getattr(self, knob)
            if value not in get_args(literal):
                raise ValueError(
                    f"unknown {knob} {value!r} (have: {list(get_args(literal))})"
                )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (have: {sorted(EXECUTORS)})"
            )
        for candidate in parse_policy_spec(self.policy):
            if candidate not in POLICIES:
                raise ValueError(
                    f"unknown policy {candidate!r} (have: {sorted(POLICIES)})"
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
        return flow_result(self.engine, output_signals)


def flow_result(engine: Engine, output_signals: dict[str, str]) -> FlowResult:
    """Package one engine's mapped network as a :class:`FlowResult`.

    Sets the network's outputs to the bound signals and checks that every
    node fits the LUT width; both flows end here.
    """
    ctx = engine.context
    ctx.lut.set_outputs(sorted(set(output_signals.values())))
    check_k_feasible(ctx.lut, engine.config.k)
    return FlowResult(
        network=ctx.lut,
        output_signals=output_signals,
        config=engine.config,
        records=ctx.records,
        bdd_stats=BddStats.from_manager(ctx.bdd),
        engine_stats=engine.stats(),
        race_winners=dict(engine.race_winners),
    )


def prepare_synthesis(network: Network, config: FlowConfig) -> PreparedRun:
    """Collapse a network and partition its outputs into engine groups."""
    with observe.span("collapse"):
        collapsed = collapse(network)
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
        groups_idx = partition_outputs(
            bdd,
            [out_nodes[i] for i in nontrivial],
            sorted(collapsed.input_levels.values()),
            config.k,
            max_group=config.max_group,
            kernel=engine.partition_kernel(),
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
    values = network_bdds(reference, result.network)
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
