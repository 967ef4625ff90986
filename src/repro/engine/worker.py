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
around submit/collect still time them; step counts and the deepest
recursion are merged back via ``kind_counts`` and ``depth``).  A
``race:`` policy is raced here, inside the group's one task: every
candidate maps the group and the cheapest result comes back, naming its
winner in ``policy``.

The same two types key and fill the persistent result cache
(:mod:`repro.cache`), the one store a re-run replays finished groups
from: :func:`payload_fingerprint` identifies a payload,
:func:`config_digest` the semantic flow knobs, and
:func:`result_to_json` / :func:`result_from_json` are the portable JSON
form of a result (also the remote executor's wire form).

Everything here must stay module-level and picklable: the pool pickles
payloads and results, not closures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from repro.bdd.manager import BDD
from repro.bdd.transfer import PortableDag, import_dag
from repro.engine.faults import FaultSpec, perform_fault
from repro.engine.policies import LADDER_CAP, PEEL_ROUNDS
from repro.partitioning.outputs import MAX_GLOBALS

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
    """What a worker sends back for one group.

    ``depth`` is the deepest recursion level the group reached (1 for a
    group that needed no smaller vector); the merge folds it into
    ``queue_depth_max``.  ``policy`` names the candidate that won a raced
    group, and is None for a group mapped by one policy.
    """

    nodes: tuple[NodeSpec, ...]
    outputs: tuple[str, ...]
    records: tuple["GroupRecord", ...]
    kind_counts: dict[str, int]
    depth: int = 0
    policy: str | None = None


def run_group(payload: GroupPayload) -> GroupResult:
    """Map one group on a private manager.

    The entry point of every portable group run: pool and remote workers
    call it, and so do the serial executor's in-process future and a
    degraded group.  A ``race:`` policy maps the group once per
    candidate, each on a fresh manager, and keeps the first minimum of
    ``(target.group_cost(nodes), spec index)``, so the winner does not
    depend on where or when the group ran.
    """
    from repro.engine.policies import parse_policy_spec
    from repro.targets import make_target

    perform_fault(payload.fault, in_worker=True)
    config = replace(
        payload.config,
        jobs=1,
        executor="serial",
        broker=None,  # remote workers must never re-dispatch remotely
        fault_plan=None,
        cache_db=None,  # the parent owns the single store connection
    )
    candidates = parse_policy_spec(config.policy)
    if len(candidates) == 1:
        return _map_group(payload, config)
    target = make_target(config.target)
    best: tuple[tuple, GroupResult] | None = None
    for policy in candidates:
        result = _map_group(payload, replace(config, policy=policy))
        cost = target.group_cost(result.nodes)
        if best is None or cost < best[0]:
            best = (cost, replace(result, policy=policy))
    return best[1]


def _map_group(payload: GroupPayload, config: "FlowConfig") -> GroupResult:
    """Map the payload's group under one concrete policy on a fresh manager."""
    from repro.engine.emitter import EmitContext, VectorEmitter
    from repro.engine.executors import drain_groups
    from repro.engine.policies import make_policy
    from repro.engine.tasks import TaskCounts
    from repro.network.network import Network

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
        depth=counts.depth_max,
    )


#: FlowConfig fields that do not change the mapped network -- excluded
#: from the config digest so e.g. a different worker count replays the
#: same cached groups.  Every *new* FlowConfig field is semantic by default.
_NON_SEMANTIC_FIELDS = frozenset(
    {
        "jobs",
        "executor",
        # The broker address is pure transport: a remote run replays a
        # serial run's groups (and vice versa) to byte-identical output.
        "broker",
        "fault_plan",
        "task_timeout",
        "task_retries",
        "cache_db",
    }
)

#: Semantic knobs that were FlowConfig fields and are now fixed, with the
#: values the flow uses.  The digest still covers them under their old
#: names, so results stored before they were retired keep hitting.
_RETIRED_FIELDS = {
    "bound_size": None,
    "dc_fill": "zero",
    "ladder_cap": LADDER_CAP,
    "max_globals": MAX_GLOBALS,
    "output_grouping": "greedy",
    "peel_rounds": PEEL_ROUNDS,
}


def config_digest(config: "FlowConfig") -> str:
    """Digest of the semantic flow knobs (the result cache's key prefix)."""
    semantic = {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.name not in _NON_SEMANTIC_FIELDS
    }
    semantic.update(_RETIRED_FIELDS)
    blob = json.dumps(semantic, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def payload_fingerprint(payload: GroupPayload) -> str:
    """Digest identifying one group subproblem (functions + frontier names).

    Covers the exported DAG (variable names, node triples, roots) and the
    level-to-signal binding; the flow configuration is covered by
    :func:`config_digest` instead.
    """
    dag = payload.dag
    blob = json.dumps(
        [
            list(dag.var_names),
            [list(n) for n in dag.nodes],
            list(dag.roots),
            sorted(payload.level_signals.items()),
        ]
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_to_json(result: GroupResult) -> dict:
    """Serialize a :class:`GroupResult` as a JSON-compatible object."""
    return {
        "nodes": [
            [s.name, list(s.fanins), s.num_vars,
             [[care, value] for care, value in s.cubes], s.constant]
            for s in result.nodes
        ],
        "outputs": list(result.outputs),
        "records": [
            [r.outputs, r.num_globals, r.num_functions,
             r.num_functions_unshared]
            for r in result.records
        ],
        "kind_counts": dict(result.kind_counts),
        "depth": result.depth,
        "policy": result.policy,
    }


def result_from_json(payload: dict) -> GroupResult:
    """Rebuild a :class:`GroupResult` from :func:`result_to_json` output.

    The counts are read as ints: the payload is input from outside the
    program, and they feed the run's statistics unchecked.  A payload
    without ``depth`` or ``policy`` (stored before results carried them)
    reads 0 or None.  A malformed payload, including a ``policy`` that is
    neither a string nor None, raises ``KeyError``, ``TypeError`` or
    ``ValueError``.
    """
    from repro.mapping.flow import GroupRecord

    result = GroupResult(
        nodes=tuple(
            NodeSpec(
                name,
                tuple(fanins),
                num_vars,
                tuple((care, value) for care, value in cubes),
                constant=constant,
            )
            for name, fanins, num_vars, cubes, constant in payload["nodes"]
        ),
        outputs=tuple(payload["outputs"]),
        records=tuple(
            GroupRecord(*(int(count) for count in record))
            for record in payload["records"]
        ),
        kind_counts={
            str(kind): int(count)
            for kind, count in dict(payload["kind_counts"]).items()
        },
        depth=int(payload.get("depth", 0)),
        policy=payload.get("policy"),
    )
    if result.policy is not None and not isinstance(result.policy, str):
        raise ValueError(f"group result policy {result.policy!r} is not a string")
    return result
