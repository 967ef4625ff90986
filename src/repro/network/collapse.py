"""Collapsing a network into output BDDs.

The paper's first experiment starts from *collapsed* networks: the
multi-level structure is flattened into one global function per output
(circuits whose collapsed form blows up are marked with ``*`` in Table 2 and
handled through the pre-structured "r+" flow instead).  Collapsing here
builds one BDD per output over the primary-input variables by sweeping the
network in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.network.network import Network


class CollapseOverflow(RuntimeError):
    """Raised when the collapsed BDDs exceed the node budget."""


@dataclass
class CollapsedNetwork:
    """Output functions of a network as BDDs over its primary inputs."""

    bdd: BDD
    input_levels: dict[str, int]
    output_nodes: dict[str, int]

    @property
    def input_names(self) -> list[str]:
        return sorted(self.input_levels, key=self.input_levels.get)


def collapse(network: Network, max_nodes: int | None = None) -> CollapsedNetwork:
    """Build a BDD per primary output over the primary inputs.

    ``max_nodes`` bounds the total manager size; exceeding it raises
    :class:`CollapseOverflow` (the "could not be collapsed" case of Table 2).
    """
    bdd = BDD()
    values: dict[str, int] = {}
    input_levels: dict[str, int] = {}
    for name in network.inputs:
        lit = bdd.add_var(name)
        values[name] = lit
        input_levels[name] = bdd.level(lit)

    for name in network.topological_order():
        node = network.nodes[name]
        result = FALSE
        for cube in node.cover.cubes:
            term = TRUE
            for j, polarity in cube.literals().items():
                fanin = values[node.fanins[j]]
                term = bdd.apply_and(term, fanin if polarity else bdd.apply_not(fanin))
                if term == FALSE:
                    break
            result = bdd.apply_or(result, term)
        values[name] = result
        if max_nodes is not None and bdd.num_nodes > max_nodes:
            raise CollapseOverflow(
                f"collapse of {network.name!r} exceeded {max_nodes} BDD nodes"
            )

    output_nodes = {name: values[name] for name in network.outputs}
    return CollapsedNetwork(bdd=bdd, input_levels=input_levels, output_nodes=output_nodes)
