"""The paper's cost model: Xilinx XC3000 CLBs (the reference target).

``xc3000-clb`` is the target the flow was historically hardwired to: 5-input
LUT feasibility, the scorer-race ranking tuple of
:class:`repro.engine.policies.LadderPeelPolicy`, and
:func:`repro.mapping.xc3000.pack_xc3000` CLB packing for the final count.
It is the **byte-identity reference**: a run with the default configuration
must emit exactly the BLIF the pre-target-seam flow emitted, which pins
every method here to the historical formulas (see ``docs/TARGETS.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.targets.base import TargetCost, spec_group_cost

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.worker import NodeSpec
    from repro.network.network import Network


class Xc3000Target:
    """XC3000 CLB cost model (k = 5, two <=4-input functions per CLB)."""

    name = "xc3000-clb"
    k = 5

    #: Per-function input limit when two functions share one CLB.
    pair_fanin = 4

    def feasible(self, num_inputs: int) -> bool:
        """One function generator hosts up to 5 inputs."""
        return num_inputs <= self.k

    def candidate_key(
        self, progressing: Sequence[int], num_functions: int, g_inputs: int
    ) -> tuple:
        """The historical ranking: progress, then q, then g-inputs.

        This tuple is byte-identity-critical -- it is exactly the key the
        pre-seam ladder-peel policy compared candidate decompositions by.
        """
        return (0 if progressing else 1, num_functions, g_inputs)

    def group_cost(self, nodes: Sequence["NodeSpec"]) -> tuple:
        """CLB lower bound first (pairable <=4-input cells share CLBs)."""
        return spec_group_cost(nodes, pair_fanin=self.pair_fanin)

    def network_cost(self, network: "Network") -> TargetCost:
        """Exact CLB count via maximum matching (:func:`pack_xc3000`)."""
        from repro.mapping.lut import lut_count
        from repro.mapping.xc3000 import pack_xc3000

        packing = pack_xc3000(network, k=self.k, pair_fanin=self.pair_fanin)
        return TargetCost(
            luts=lut_count(network),
            units=packing.num_clbs,
            unit_name="XC3000 CLB",
            detail=(
                f"{len(packing.pairs)} paired, {len(packing.singles)} single"
            ),
        )
