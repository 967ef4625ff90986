"""BDD computation of network don't-cares.

For a node ``n`` with fanins ``y_1..y_j`` (functions of the primary inputs
``x``), the *local don't-care set* over the fanin space is

    DC(y)  =  ~EX x . R(y, x)                      (satisfiability DCs)
            | ~EX x . (R(y, x) & care(x))          (observability DCs)

where ``R(y, x) = AND_i (y_i == fanin_i(x))`` is the fanin image relation
and ``care(x)`` is the complement of the node's ODC: the inputs under which
the node's value is observable at some primary output.  A fanin vertex
``y`` is a don't-care exactly when no *observable* input assignment
produces it, so both classical don't-care families fall out of one
quantification.
"""

from __future__ import annotations

from repro.bdd.manager import BDD, FALSE, TRUE
from repro.boolfunc.sop import Sop
from repro.boolfunc.truthtable import TruthTable
from repro.network.collapse import cover_function
from repro.network.network import Network


def _signal_functions(
    network: Network, bdd: BDD, replace: str | None = None, t_var: int | None = None
) -> dict[str, int]:
    """PI-level BDD of every signal; node ``replace`` becomes the literal ``t_var``."""
    values: dict[str, int] = {}
    for name in network.inputs:
        values[name] = bdd.var(bdd.level_of(name))
    for name in network.topological_order():
        if name == replace:
            assert t_var is not None
            values[name] = t_var
            continue
        node = network.nodes[name]
        values[name] = cover_function(
            bdd, node.cover, [values[f] for f in node.fanins]
        )
    return values


def observability_care_set(network: Network, name: str, bdd: BDD) -> int:
    """Inputs under which node ``name`` is observable at some output.

    ``bdd`` must already hold one variable per primary input (named after
    it); a fresh variable ``t`` is appended for the node.  Returns the care
    set as a BDD over the primary-input levels (the ODC is its complement).
    """
    t_lit = bdd.add_var(f"@t_{name}_{bdd.num_vars}")
    t_level = bdd.level(t_lit)
    values = _signal_functions(network, bdd, replace=name, t_var=t_lit)
    care = FALSE
    for out in network.outputs:
        f = values[out]
        diff = bdd.apply_xor(
            bdd.restrict(f, {t_level: False}), bdd.restrict(f, {t_level: True})
        )
        care = bdd.apply_or(care, diff)
        if care == TRUE:
            break
    return care


def local_dont_cares(
    network: Network, name: str, use_observability: bool = True
) -> tuple[Sop, Sop]:
    """(onset, don't-care) covers of node ``name`` over its fanin space.

    The onset is the node's current cover; the don't-care cover collects the
    fanin vertices that are unproducible (SDC) or only producible under
    unobservable inputs (ODC).  Works by exhaustive tabulation of the fanin
    space, so it is intended for nodes with a handful of fanins (the usual
    situation after pre-structuring).
    """
    node = network.nodes[name]
    j = len(node.fanins)
    if j > 12:
        raise ValueError(f"node {name!r} has {j} fanins; local DC tabulation capped at 12")

    bdd = BDD()
    for pi in network.inputs:
        bdd.add_var(pi)
    if use_observability and name not in network.outputs:
        care = observability_care_set(network, name, bdd)
    else:
        care = TRUE
    values = _signal_functions(network, bdd)

    fanin_nodes = [values[f] for f in node.fanins]
    dc_bits = 0
    for vertex in range(1 << j):
        producible = care
        for i, fn in enumerate(fanin_nodes):
            lit = fn if (vertex >> i) & 1 else bdd.apply_not(fn)
            producible = bdd.apply_and(producible, lit)
            if producible == FALSE:
                break
        if producible == FALSE:
            dc_bits |= 1 << vertex
    dc_table = TruthTable(j, dc_bits)
    return node.cover, Sop.from_truthtable(dc_table)
