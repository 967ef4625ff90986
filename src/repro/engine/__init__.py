"""The synthesis engine: the paper's mapping recursion and its executors.

The decomposition flow of the paper (Section 7) is a recursion: output
groups decompose independently, every decomposition spawns d-function and
g-function subproblems, and non-decomposable functions Shannon-split into
cofactor subproblems.  This package runs it:

- :mod:`repro.engine.emitter` -- :meth:`VectorEmitter.map_vector`, the
  recursion itself, emitting LUTs into a mutable emission context (the LUT
  network under construction); it checks the run's cancel flag and budgets
  at every vector step.
- :mod:`repro.engine.tasks` -- the four step kinds (``decompose-vector``,
  ``emit-lut``, ``shannon-split``, ``compose``), their per-run counters
  and the report-ready :class:`EngineStats`.
- :mod:`repro.engine.policies` -- the decomposition heuristics (scorer
  race, bound-size ladder, lone-output peel) behind the typed
  :class:`DecomposePolicy` interface, swappable via ``FlowConfig`` --
  including per-group portfolio racing (``policy="race:p1,p2,..."``),
  where every candidate maps each output group inside the group's one
  task (:func:`repro.engine.worker.run_group`) and the cheapest result
  under the technology target (:mod:`repro.targets`) wins
  deterministically.
- :mod:`repro.engine.executors` -- one submit/collect drain behind three
  executors: ``serial`` maps every group in the parent, ``process`` fans
  the groups out to worker processes, each on its own BDD manager, and
  re-imports the mapped sub-networks in group order.
- :mod:`repro.engine.remote` -- the ``remote`` executor: groups fanned
  out across *hosts* through a stdlib HTTP broker (``repro broker`` /
  ``repro worker``), with lease-based dead-host detection feeding the
  same retry/degrade ladder (see ``docs/DISTRIBUTED.md``).
- :mod:`repro.engine.worker` -- one group as a portable payload and
  result, the unit a pool or remote worker maps and the result cache
  stores; a re-run with the same cache resumes an interrupted run.
- :mod:`repro.engine.batch` -- many networks through one shared pool.
- :mod:`repro.engine.faults` -- deterministic seeded fault injection for
  exercising the executor's recovery paths (``--inject-faults``).

See ``docs/ARCHITECTURE.md`` for the layering and the dataflow diagram,
``docs/RELIABILITY.md`` for retry, degradation, fault-plan and resume
semantics.
"""

from repro.engine.tasks import EngineStats, TaskCounts
from repro.engine.policies import (
    POLICIES,
    DecomposePolicy,
    FlatLadderPolicy,
    LadderPeelPolicy,
    PolicyDecision,
    make_policy,
    parse_policy_spec,
)
from repro.engine.emitter import EmitContext, VectorEmitter
from repro.engine.batch import synthesize_batch
from repro.engine.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.engine.executors import (
    EXECUTORS,
    Engine,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)

__all__ = [
    "EXECUTORS",
    "DecomposePolicy",
    "EmitContext",
    "Engine",
    "EngineStats",
    "FaultPlan",
    "FaultSpec",
    "FlatLadderPolicy",
    "LadderPeelPolicy",
    "POLICIES",
    "PolicyDecision",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskCounts",
    "VectorEmitter",
    "make_executor",
    "make_policy",
    "parse_fault_plan",
    "parse_policy_spec",
    "synthesize_batch",
]
