"""Portable BDD transfer: export function DAGs, re-import them elsewhere.

The engine's process executor (:mod:`repro.engine.executors`) ships
output groups to worker processes.  BDD edges are manager-local
integers, so functions cross the process boundary as a
:class:`PortableDag`: the reachable node set of the exported roots in
child-before-parent order, plus the variable names of every level the DAG
mentions.  The encoding mirrors the manager's own edge representation
(``(index << 1) | complement``, index 0 = the terminal), which makes the
round-trip exact -- including complement edges -- and cheap.

Import is canonical: :func:`import_dag` rebuilds the nodes bottom-up
through the manager's find-or-create path, so importing into a manager that
already holds equal functions deduplicates against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bdd.manager import BDD


@dataclass(frozen=True)
class PortableDag:
    """A manager-independent function DAG (picklable).

    Attributes:
        var_names: names of levels ``0 .. len(var_names) - 1``; the import
            manager must map them to the same level numbers.
        nodes: ``(level, low, high)`` triples in child-before-parent order;
            ``low``/``high`` are local edges ``(index << 1) | complement``
            where index 0 is the terminal and index ``i >= 1`` refers to
            ``nodes[i - 1]``.  Low edges are regular (the manager's
            canonical polarity rule), which import relies on.
        roots: the exported functions as local edges.
    """

    var_names: tuple[str, ...]
    nodes: tuple[tuple[int, int, int], ...] = field(default_factory=tuple)
    roots: tuple[int, ...] = field(default_factory=tuple)

    @property
    def num_nodes(self) -> int:
        """Number of internal (non-terminal) nodes in the exported DAG."""
        return len(self.nodes)


def export_dag(bdd: BDD, roots: Sequence[int]) -> PortableDag:
    """Serialize the functions ``roots`` of ``bdd`` as a :class:`PortableDag`.

    Only the reachable subgraph is exported.  Variable names are exported
    for *all* levels up to the manager's current count so the import side
    reproduces identical level numbering (levels are positional).
    """
    # Map manager node index -> local index (0 = terminal), children first.
    local: dict[int, int] = {0: 0}
    nodes: list[tuple[int, int, int]] = []

    def visit(edge: int) -> None:
        stack = [edge]
        # Iterative postorder: push a node back once its children are local.
        while stack:
            e = stack.pop()
            idx = e >> 1
            if idx in local:
                continue
            low = bdd.low(e & ~1)  # children of the *regular* edge
            high = bdd.high(e & ~1)
            lo_i, hi_i = low >> 1, high >> 1
            if lo_i in local and hi_i in local:
                nodes.append(
                    (
                        bdd.level(e),
                        (local[lo_i] << 1) | (low & 1),
                        (local[hi_i] << 1) | (high & 1),
                    )
                )
                local[idx] = len(nodes)
            else:
                stack.append(e)
                if hi_i not in local:
                    stack.append(high)
                if lo_i not in local:
                    stack.append(low)

    for root in roots:
        visit(root)

    local_roots = tuple((local[r >> 1] << 1) | (r & 1) for r in roots)
    return PortableDag(
        var_names=tuple(bdd.var_name(lvl) for lvl in range(bdd.num_vars)),
        nodes=tuple(nodes),
        roots=local_roots,
    )


def import_dag(bdd: BDD, dag: PortableDag) -> list[int]:
    """Materialize ``dag`` in ``bdd``; return the root edges, in order.

    Missing variables are appended to the manager (levels must line up:
    the manager may only hold a prefix of ``dag.var_names``, with matching
    names, which is trivially true for a fresh manager).
    """
    for level, name in enumerate(dag.var_names):
        if level < bdd.num_vars:
            if bdd.var_name(level) != name:
                raise ValueError(
                    f"level {level} is {bdd.var_name(level)!r} in the target "
                    f"manager but {name!r} in the DAG"
                )
        else:
            bdd.add_var(name)

    # local index -> target edge of the regular node
    edges: list[int] = [0]
    for level, low, high in dag.nodes:
        lo = edges[low >> 1] ^ (low & 1)
        hi = edges[high >> 1] ^ (high & 1)
        # Low edges of exported nodes are regular, so mk reproduces the
        # node without polarity juggling (asserted by the canonicity rule).
        edges.append(bdd.mk(level, lo, hi))
    return [edges[r >> 1] ^ (r & 1) for r in dag.roots]
