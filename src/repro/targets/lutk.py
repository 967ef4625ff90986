"""Generic ``lut-k`` targets: plain k-input LUT cost for any k >= 3.

``lut-4`` .. ``lut-6`` are the ROADMAP item-5 sweep targets; the class
admits any k >= 3 (k = 3 is the Shannon-mux floor) so existing non-default
``FlowConfig.k`` values keep working through the target seam.  Cost is the
LUT count (every logic cell is one LUT, constants are free); ``lut-4``
additionally prices networks in XC4000 CLBs via
:func:`repro.mapping.xc4000.pack_xc4000` (two 4-input generators plus the
H-triple combiner per CLB), which is what makes the k = 4 column of the
sweep comparable to the paper's CLB numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.targets.base import TargetCost, spec_group_cost

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.worker import NodeSpec
    from repro.network.network import Network


class LutTarget:
    """k-input LUT cost model (``lut-<k>``)."""

    def __init__(self, k: int) -> None:
        """A target whose single cell is one ``k``-input LUT."""
        if k < 3:
            raise ValueError("lut-k targets need k >= 3 (the Shannon mux)")
        self.k = k
        self.name = f"lut-{k}"

    def feasible(self, num_inputs: int) -> bool:
        """A function fits one LUT when its support fits the inputs."""
        return num_inputs <= self.k

    def candidate_key(
        self, progressing: Sequence[int], num_functions: int, g_inputs: int
    ) -> tuple:
        """Same ranking as the reference target: progress, q, g-inputs.

        LUT count tracks q + composition work directly, so the historical
        tuple is also the right LUT-minimizing order -- and keeping it
        identical means ``lut-5`` reproduces the ``xc3000-clb`` network
        exactly (only the packing/pricing differs).
        """
        return (0 if progressing else 1, num_functions, g_inputs)

    def group_cost(self, nodes: Sequence["NodeSpec"]) -> tuple:
        """LUT count first, fanin volume as the deterministic refiner."""
        return spec_group_cost(nodes, pair_fanin=None)

    def network_cost(self, network: "Network") -> TargetCost:
        """LUT count; for k = 4 also the XC4000 CLB packing."""
        from repro.mapping.lut import lut_count

        luts = lut_count(network)
        if self.k == 4:
            from repro.mapping.xc4000 import pack_xc4000

            packing = pack_xc4000(network, k=self.k)
            return TargetCost(
                luts=luts,
                units=packing.num_clbs,
                unit_name="XC4000 CLB",
                detail=(
                    f"{len(packing.triples)} triples, "
                    f"{len(packing.pairs)} paired, "
                    f"{len(packing.singles)} single"
                ),
            )
        return TargetCost(luts=luts, units=luts, unit_name="LUT")
