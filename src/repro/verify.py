"""Combinational equivalence checking.

A small public utility around the machinery the flow already uses
internally: two networks over the same primary inputs are compared either
*exactly* (both collapsed into one BDD manager; ROBDD canonicity turns the
comparison into node-id equality, and any mismatch yields a counterexample
input vector) or by seeded random simulation when the BDDs exceed the node
budget.

Example::

    from repro.verify import check_equivalence
    check_equivalence(before, after).expect()   # VerificationError on mismatch

(The old ``assert result.equivalent`` idiom silently stopped checking under
``python -O``; :meth:`EquivalenceResult.expect` raises a real
:class:`repro.errors.VerificationError` carrying the failing output and the
counterexample vector.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.bdd.manager import FALSE
from repro.errors import VerificationError
from repro.network.collapse import (
    CollapsedNetwork,
    CollapseOverflow,
    collapse,
    cover_function,
)
from repro.network.network import Network
from repro.network.simulate import input_vectors


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    method: Literal["bdd", "simulation"]
    failing_output: str | None = None
    counterexample: dict[str, bool] | None = None

    def __bool__(self) -> bool:
        return self.equivalent

    def expect(self, context: str = "networks are not equivalent") -> "EquivalenceResult":
        """Raise :class:`VerificationError` unless the check passed.

        Returns ``self`` on success so the call chains.  Unlike an
        ``assert``, this keeps guarding under ``python -O``.
        """
        if self.equivalent:
            return self
        detail = f"{context} ({self.method} check"
        if self.failing_output is not None:
            detail += f", output {self.failing_output!r}"
        if self.counterexample is not None:
            detail += f", counterexample {self.counterexample!r}"
        detail += ")"
        raise VerificationError(
            detail,
            failing_output=self.failing_output,
            counterexample=self.counterexample,
        )


def network_bdds(
    reference: CollapsedNetwork, net: Network, max_nodes: int | None = None
) -> dict[str, int]:
    """The BDD of every signal of ``net``, over ``reference``'s manager.

    ``net``'s primary inputs take the variables of ``reference``'s inputs
    of the same name, and every node's cover is evaluated bottom-up, so
    comparing a returned node with one of ``reference``'s outputs is an
    exact equivalence check (ROBDD canonicity).  Raises
    :class:`CollapseOverflow` once the manager holds more than
    ``max_nodes`` nodes.
    """
    bdd = reference.bdd
    values: dict[str, int] = {
        name: bdd.var(level) for name, level in reference.input_levels.items()
    }
    for name in net.topological_order():
        node = net.nodes[name]
        values[name] = cover_function(
            bdd, node.cover, [values[f] for f in node.fanins]
        )
        if max_nodes is not None and bdd.num_nodes > max_nodes:
            raise CollapseOverflow("equivalence BDDs exceeded the node budget")
    return values


def _check_bdd(a: Network, b: Network, max_nodes: int | None) -> EquivalenceResult:
    reference = collapse(a, max_nodes=max_nodes)
    bdd = reference.bdd
    values = network_bdds(reference, b, max_nodes)
    for out in a.outputs:
        miter = bdd.apply_xor(reference.output_nodes[out], values[out])
        if miter != FALSE:
            model = bdd.sat_one(miter) or {}
            vector = {
                name: model.get(level, False)
                for name, level in reference.input_levels.items()
            }
            return EquivalenceResult(
                equivalent=False,
                method="bdd",
                failing_output=out,
                counterexample=vector,
            )
    return EquivalenceResult(equivalent=True, method="bdd")


def _check_simulation(a: Network, b: Network, num_random: int, seed: int) -> EquivalenceResult:
    for vector in input_vectors(a.inputs, num_random, seed):
        got_a = a.evaluate_outputs(vector)
        got_b = b.evaluate_outputs(vector)
        for out in a.outputs:
            if got_a[out] != got_b[out]:
                return EquivalenceResult(
                    equivalent=False,
                    method="simulation",
                    failing_output=out,
                    counterexample=dict(vector),
                )
    return EquivalenceResult(equivalent=True, method="simulation")


def check_equivalence(
    a: Network,
    b: Network,
    method: Literal["auto", "bdd", "simulation"] = "auto",
    max_nodes: int = 2_000_000,
    num_random: int = 512,
    seed: int = 0,
) -> EquivalenceResult:
    """Check that two networks compute the same outputs.

    The networks must agree on input and output names.  ``auto`` tries the
    exact BDD check and falls back to simulation if the BDDs blow past
    ``max_nodes``.  Note the simulation fallback can only *refute*
    equivalence with certainty; its "equivalent" verdict is statistical.
    """
    if set(a.inputs) != set(b.inputs):
        raise ValueError("networks have different primary inputs")
    if set(a.outputs) != set(b.outputs):
        raise ValueError("networks have different primary outputs")
    if method == "simulation":
        return _check_simulation(a, b, num_random, seed)
    try:
        return _check_bdd(a, b, max_nodes if method == "auto" else None)
    except CollapseOverflow:
        if method == "bdd":
            raise
        return _check_simulation(a, b, num_random, seed)
