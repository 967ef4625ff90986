"""Worker-process side of the process executor.

A worker receives one independent vector/cluster subproblem as a
:class:`GroupPayload` -- the functions as a :class:`PortableDag`, the
signal names of the frontier levels, and the flow configuration -- and maps
it on a **private BDD manager** with the same serial engine the parent
uses.  The mapped sub-network travels back as a :class:`GroupResult` of
:class:`NodeSpec` entries in emission order; the parent re-imports them
with fresh names (see :func:`repro.engine.executors.merge_group_result`).

Workers force ``jobs=1`` and the serial executor internally, so no nested
process pools are spawned, and they run untraced (the parent's spans
around submit/collect still time them; step counts are merged back via
``kind_counts``).

Everything here must stay module-level and picklable: the pool pickles
payloads and results, not closures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.bdd.manager import BDD
from repro.bdd.transfer import PortableDag, import_dag
from repro.engine.faults import FaultSpec, perform_fault

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.mapping.flow import FlowConfig, GroupRecord


@dataclass(frozen=True)
class GroupPayload:
    """One group subproblem shipped to a worker.

    Attributes:
        dag: the group's functions over the parent's frontier levels.
        level_signals: level -> LUT-network signal name, for every level
            in the group's support union.
        config: the flow configuration (the worker normalizes it to
            serial/one-job itself).
        fault: planned fault to perform at task entry (fault-injection
            harness only; see :mod:`repro.engine.faults`).
    """

    dag: PortableDag
    level_signals: dict[int, str]
    config: "FlowConfig"
    fault: FaultSpec | None = None


@dataclass(frozen=True)
class NodeSpec:
    """One emitted LUT-network node, manager- and name-space-free.

    ``cubes`` are ``(care, value)`` mask pairs of the SOP cover;
    ``constant`` is None for logic nodes and the constant's value for
    constant nodes (which have no fanins).
    """

    name: str
    fanins: tuple[str, ...]
    num_vars: int
    cubes: tuple[tuple[int, int], ...]
    constant: bool | None = None


@dataclass(frozen=True)
class GroupResult:
    """What a worker sends back for one group."""

    nodes: tuple[NodeSpec, ...]
    outputs: tuple[str, ...]
    records: tuple["GroupRecord", ...]
    kind_counts: dict[str, int]


def run_group(payload: GroupPayload) -> GroupResult:
    """Map one group on a private manager.

    The entry point of every portable group run: pool and remote workers
    call it, and so does the serial executor's in-process future.
    """
    from repro.engine.emitter import EmitContext, VectorEmitter
    from repro.engine.executors import drain_groups
    from repro.engine.policies import make_policy
    from repro.engine.tasks import TaskCounts
    from repro.network.network import Network

    perform_fault(payload.fault, in_worker=True)
    config = replace(
        payload.config,
        jobs=1,
        executor="serial",
        broker=None,  # remote workers must never re-dispatch remotely
        fault_plan=None,
        checkpoint_path=None,
        resume_from=None,
        cache_db=None,  # the parent owns the single store connection
    )
    bdd = BDD()
    roots = import_dag(bdd, payload.dag)

    lut = Network("worker")
    signal_of_level: dict[int, str] = {}
    for lvl in sorted(payload.level_signals):
        name = payload.level_signals[lvl]
        lut.add_input(name)
        signal_of_level[lvl] = name

    context = EmitContext(bdd, config, lut, signal_of_level)
    counts = TaskCounts()
    emitter = VectorEmitter(context, make_policy(config), counts)
    (signals,) = drain_groups(emitter, [roots])

    nodes: list[NodeSpec] = []
    for name, node in lut.nodes.items():
        if not node.fanins:
            nodes.append(
                NodeSpec(name, (), 0, (), constant=bool(node.cover.cubes))
            )
        else:
            nodes.append(
                NodeSpec(
                    name,
                    tuple(node.fanins),
                    node.cover.num_vars,
                    tuple((c.care, c.value) for c in node.cover.cubes),
                )
            )
    return GroupResult(
        nodes=tuple(nodes),
        outputs=tuple(signals),
        records=tuple(context.records),
        kind_counts=counts.kind_counts(),
    )
