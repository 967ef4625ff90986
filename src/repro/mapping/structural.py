"""Partial-collapse ("r+") LUT mapping of pre-structured networks.

The starred circuits of Table 2 cannot be collapsed globally; the paper
pre-structures them with ``script.rugged`` and maps the resulting structure.
This module implements the corresponding flow as a *cut-based partial
collapse*:

1. Walk the network in topological order, building each signal's function as
   a BDD over the current *frontier* (primary inputs plus promoted boundary
   signals).
2. When a function's support exceeds ``max_cluster_inputs``, promote fanin
   signals (widest first) to boundary status -- each gets a fresh BDD
   variable -- until the function fits.  Promoted signals become mapping
   targets of their own.
3. Map the resulting super-node functions (boundaries + primary outputs) to
   LUTs with the same recursive decomposition engine as the collapsed flow;
   in ``multi`` mode, independent functions emitted together are grouped by
   the paper's output-partitioning heuristic so preferable decomposition
   functions can be shared across them.

For networks that fit entirely under the support cap this degenerates to a
full collapse, which matches the paper's Table 2 where the unstarred "r+"
rows equal the collapsed-flow results.
"""

from __future__ import annotations

from repro import observe
from repro.bdd.backend import make_manager
from repro.bdd.manager import BDD, FALSE, TRUE
from repro.engine import Engine
from repro.mapping.flow import FlowConfig, FlowResult
from repro.mapping.lut import check_k_feasible
from repro.network.network import Network
from repro.observe.stats import BddStats
from repro.partitioning.outputs import partition_outputs


def _build_rep(bdd: BDD, cover, fanin_reps: list[int]) -> int:
    """Function of a node over the current frontier, from its SOP cover."""
    acc = FALSE
    for cube in cover.cubes:
        term = TRUE
        for j, polarity in cube.literals().items():
            fn = fanin_reps[j]
            term = bdd.apply_and(term, fn if polarity else bdd.apply_not(fn))
            if term == FALSE:
                break
        acc = bdd.apply_or(acc, term)
    return acc


def partial_collapse(
    network: Network,
    max_support: int = 16,
    backend: str = "object",
) -> tuple[BDD, dict[int, str], list[tuple[str, int]], dict[str, int]]:
    """Collapse a network up to a support cap.

    Returns ``(bdd, frontier, items, rep)`` where ``frontier`` maps BDD
    levels to the network signals they stand for, ``items`` lists the
    functions to synthesize (boundary signals first, in promotion order,
    then any remaining logic feeding the outputs), and ``rep`` maps every
    network signal to its function over the frontier.
    """
    bdd = make_manager(backend)
    rep: dict[str, int] = {}
    frontier: dict[int, str] = {}
    items: list[tuple[str, int]] = []
    promoted: set[str] = set()

    for name in network.inputs:
        lit = bdd.add_var(name)
        rep[name] = lit
        frontier[bdd.level(lit)] = name

    def promote(signal: str) -> None:
        """Emit ``signal`` as a mapping target and replace it by a variable."""
        items.append((signal, rep[signal]))
        lit = bdd.add_var(f"@{signal}")
        frontier[bdd.level(lit)] = signal
        rep[signal] = lit
        promoted.add(signal)

    for name in network.topological_order():
        node = network.nodes[name]
        fanin_reps = [rep[f] for f in node.fanins]
        r = _build_rep(bdd, node.cover, fanin_reps)
        if len(bdd.support(r)) > max_support:
            # Promote the widest internal fanins until the function fits.
            candidates = sorted(
                {f for f in node.fanins if f in network.nodes and f not in promoted},
                key=lambda f: (-len(bdd.support(rep[f])), f),
            )
            for f in candidates:
                if len(bdd.support(rep[f])) <= 1:
                    break  # literal-sized reps cannot reduce the support
                promote(f)
                fanin_reps = [rep[g] for g in node.fanins]
                r = _build_rep(bdd, node.cover, fanin_reps)
                if len(bdd.support(r)) <= max_support:
                    break
        rep[name] = r

    for name in network.outputs:
        if name not in promoted and name not in network.inputs:
            items.append((name, rep[name]))
    return bdd, frontier, items, rep


def _independent_batches(
    bdd: BDD, items: list[tuple[str, int]], frontier: dict[int, str]
) -> list[list[tuple[str, int]]]:
    """Split the emission list into runs with no internal dependencies.

    Item B depends on item A when A was promoted and A's frontier variable
    occurs in B's support; dependent items must be mapped in separate
    batches (A's LUT signal has to exist before B reads it).
    """
    level_of_item: dict[str, int] = {}
    for lvl, sig in frontier.items():
        level_of_item[sig] = lvl
    batches: list[list[tuple[str, int]]] = []
    current: list[tuple[str, int]] = []
    current_levels: set[int] = set()
    for sig, node in items:
        support = bdd.support(node)
        if support & current_levels:
            batches.append(current)
            current = []
            current_levels = set()
        current.append((sig, node))
        if sig in level_of_item:
            current_levels.add(level_of_item[sig])
    if current:
        batches.append(current)
    return batches


def synthesize_structural(
    network: Network,
    config: FlowConfig | None = None,
    max_cluster_inputs: int = 10,
) -> FlowResult:
    """Map a multi-level network to LUTs via partial collapse."""
    config = config or FlowConfig()
    with observe.span("partial_collapse"):
        bdd, frontier, items, rep = partial_collapse(
            network, max_cluster_inputs, backend=config.bdd_backend
        )
        observe.watch(bdd)
        observe.add("clusters", len(items))

    lut = Network("mapped")
    signal_of_level: dict[int, str] = {}
    for name in network.inputs:
        lut.add_input(name)
    engine = Engine(bdd, config, lut, signal_of_level)
    # Frontier levels resolve to mapped signals as they are emitted; PIs now.
    emitted: dict[str, str] = {name: name for name in network.inputs}
    for lvl, sig in frontier.items():
        if sig in emitted:
            signal_of_level[lvl] = emitted[sig]

    with observe.span("map"):
        # Each batch is a barrier: its boundary signals must exist before
        # the next batch reads them.  Within a batch, the grouped clusters
        # are independent engine task groups (the process executor maps
        # them concurrently).
        for batch in _independent_batches(bdd, items, frontier):
            observe.add("batches")
            nodes = [node for _, node in batch]
            names = [sig for sig, _ in batch]
            if config.mode == "multi" and len(batch) > 1:
                levels = sorted(set().union(*(bdd.support(n) for n in nodes)) or {0})
                groups = partition_outputs(
                    bdd,
                    nodes,
                    levels,
                    min(config.bound_size or config.k, config.k),
                    max_group=config.max_group,
                    max_globals=config.max_globals,
                )
            else:
                groups = [[i] for i in range(len(batch))]
            group_signals = engine.run_groups(
                [[nodes[i] for i in group] for group in groups]
            )
            for group, signals in zip(groups, group_signals):
                for i, sig in zip(group, signals):
                    emitted[names[i]] = sig
            # boundary variables of this batch now resolve to their LUT signals
            for lvl, sig in frontier.items():
                if sig in emitted and lvl not in signal_of_level:
                    signal_of_level[lvl] = emitted[sig]

    output_signals = {name: emitted[name] for name in network.outputs}
    lut.set_outputs(sorted(set(output_signals.values())))
    check_k_feasible(lut, config.k)
    return FlowResult(
        network=lut,
        output_signals=output_signals,
        config=config,
        records=engine.context.records,
        bdd_stats=BddStats.from_manager(bdd),
        engine_stats=engine.stats(),
    )
