"""The technology-target protocol: what a cost model must provide.

The decomposition theory (Defs 1-6, the subset-DP, Lmax/chi) is
target-agnostic -- only two questions are technology-specific:

1. **feasibility** -- when does a function stop decomposing and become one
   cell?  (``feasible``: support fits the cell's input count);
2. **cost** -- which of several candidate decompositions is cheaper?
   (``candidate_key`` ranks in-flight decomposition attempts,
   ``group_cost`` ranks finished sub-networks, ``network_cost`` prices a
   whole mapped network in target units).

Every target's mapped network leaves the flow as BLIF
(:func:`repro.io.blif.write_blif`).

:class:`TechTarget` is the protocol, :class:`TargetCost` the priced
result.  Implementations live in :mod:`repro.targets.xc3000`
(``xc3000-clb``, the paper's cost model and the byte-identical reference)
and :mod:`repro.targets.lutk` (``lut-k`` for any k >= 3, with XC4000 CLB
packing for k = 4).  The registry and resolver are in
:mod:`repro.targets` (``make_target`` / ``resolve_target``).

Determinism contract: every method must be a pure function of its
arguments -- the executor-equivalence and race-determinism guarantees
(identical BLIF across serial/process executors and repeated runs) rest
on targets never consulting ambient state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.worker import NodeSpec
    from repro.network.network import Network


@dataclass(frozen=True)
class TargetCost:
    """A network priced in target units.

    Attributes:
        luts: logic cells (LUT nodes; constants are free).
        units: cost in the target's native unit (CLBs for the packing
            targets, LUTs otherwise) -- the number Table 2 compares.
        unit_name: what one unit is (``"XC3000 CLB"`` / ``"LUT"`` / ...).
        detail: human-readable packing breakdown, or ``""``.
    """

    luts: int
    units: int
    unit_name: str
    detail: str = ""


@runtime_checkable
class TechTarget(Protocol):
    """Strategy interface of one technology target (cost model).

    ``name`` is the registry id (``FlowConfig.target``), ``k`` the input
    count a single cell admits -- the flow's ``FlowConfig.k`` must equal
    it (see :func:`repro.targets.resolve_target`).
    """

    name: str
    k: int

    def feasible(self, num_inputs: int) -> bool:
        """Whether a function of ``num_inputs`` variables fits one cell."""
        ...

    def candidate_key(
        self, progressing: Sequence[int], num_functions: int, g_inputs: int
    ) -> tuple:
        """Ranking key of one candidate decomposition (lower is better).

        ``progressing`` are the outputs whose codewidth beat their
        bound-set support, ``num_functions`` the shared pool size q,
        ``g_inputs`` the total composition-function inputs.
        """
        ...

    def group_cost(self, nodes: Sequence["NodeSpec"]) -> tuple:
        """Deterministic cost of one mapped group (race winner selection).

        ``nodes`` is the portable sub-network a worker (or the cache)
        produced; lower tuples win, and ties break by policy order.
        """
        ...

    def network_cost(self, network: "Network") -> TargetCost:
        """Price a whole mapped network in target units (CLI reporting)."""
        ...


def spec_group_cost(nodes: Sequence["NodeSpec"], pair_fanin: int | None) -> tuple:
    """Shared group-cost helper over portable :class:`NodeSpec` lists.

    Counts logic cells (constants are free) and total fanins; with
    ``pair_fanin`` set, cells of at most that many inputs are candidates
    for CLB pairing, so the leading component is a CLB lower bound
    (``cells - pairable // 2``) instead of the raw cell count.  The tuple
    is strictly ordered: primary units, then cells, then fanin volume --
    deterministic for any two distinct sub-networks of the same shape.
    """
    cells = 0
    fanins = 0
    pairable = 0
    for spec in nodes:
        if spec.constant is not None:
            continue
        cells += 1
        fanins += len(spec.fanins)
        if pair_fanin is not None and len(spec.fanins) <= pair_fanin:
            pairable += 1
    if pair_fanin is None:
        return (cells, fanins)
    return (cells - pairable // 2, cells, fanins)
