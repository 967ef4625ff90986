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
from typing import TYPE_CHECKING, Sequence

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.network.network import Network

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.boolfunc.sop import Sop


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


def cover_function(bdd: BDD, cover: "Sop", fanins: Sequence[int]) -> int:
    """The BDD of ``cover`` with its variable ``j`` bound to ``fanins[j]``.

    The one bottom-up evaluation step of a cover: collapsing, partial
    collapsing, equivalence checking, don't-care computation and the
    result cache's proof of a hit all build a node's function with it.
    """
    acc = FALSE
    for cube in cover.cubes:
        term = TRUE
        for j, polarity in cube.literals().items():
            fn = fanins[j]
            term = bdd.apply_and(term, fn if polarity else bdd.apply_not(fn))
            if term == FALSE:
                break
        acc = bdd.apply_or(acc, term)
    return acc


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
        values[name] = cover_function(
            bdd, node.cover, [values[f] for f in node.fanins]
        )
        if max_nodes is not None and bdd.num_nodes > max_nodes:
            raise CollapseOverflow(
                f"collapse of {network.name!r} exceeded {max_nodes} BDD nodes"
            )

    output_nodes = {name: values[name] for name in network.outputs}
    return CollapsedNetwork(bdd=bdd, input_levels=input_levels, output_nodes=output_nodes)
