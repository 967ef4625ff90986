"""First-class decomposition tasks and the work graph that holds them.

A :class:`Task` is one schedulable step of the synthesis flow.  Four kinds
cover the whole flow (mirroring the paper's recursion):

- ``decompose-vector``: decompose a vector of functions; expands into
  child tasks (peeled singletons, d-function emissions, the g-vector,
  Shannon splits) plus a trailing ``compose``.
- ``emit-lut``: materialize a k-feasible function as one LUT node.
- ``shannon-split``: mux fallback for a non-decomposable function;
  expands into a cofactor vector task plus a ``compose`` building the mux.
- ``compose``: join point -- binds produced signals (code levels, output
  cells) once its dependencies are done.

Tasks carry *declared* dependencies (``deps``): a task must not run before
every dependency is finished.  Executors are free to schedule anything
whose dependencies are met; the serial executor additionally replays the
exact depth-first order of the historical recursion so its output is
bit-identical to the pre-engine flow (see ``docs/ARCHITECTURE.md``).

The graph keeps per-kind counters and a queue-depth high-water mark;
:meth:`TaskGraph.stats` snapshots them as an :class:`EngineStats` for the
run report's ``engine`` section (``repro-run-report/5``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Literal

TaskKind = Literal["decompose-vector", "emit-lut", "shannon-split", "compose"]

#: All task kinds, in a stable order (used by stats and reports).
TASK_KINDS: tuple[str, ...] = (
    "decompose-vector",
    "emit-lut",
    "shannon-split",
    "compose",
)


@dataclass(frozen=True)
class EngineStats:
    """Counters of one engine run (flat scalars, report-ready).

    Attributes:
        executor: executor name that drained the graph.
        workers: process-pool width (1 for the serial executor).
        tasks_total: tasks executed, all kinds.
        tasks_decompose / tasks_emit_lut / tasks_shannon / tasks_compose:
            per-kind execution counts.
        queue_depth_max: high-water mark of simultaneously runnable tasks.
        tasks_offloaded: tasks executed inside worker processes.
        tasks_retried: group submissions retried after a failure.
        task_timeouts: group submissions abandoned for exceeding
            ``FlowConfig.task_timeout``.
        worker_crashes: process-pool breakages observed (and repaired).
        groups_degraded: groups that fell back to the in-parent serial
            path after exhausting their retry budget.
        faults_injected: faults fired by the fault-injection harness.
        checkpoint_saved: group results written to the checkpoint file.
        checkpoint_replayed: group results replayed from ``--resume``.
        checkpoint_stale_entries: resume entries skipped because their
            payload fingerprint no longer matched (inputs changed).
        cache_hits: groups replayed from the persistent result cache
            (``FlowConfig.cache_db``), verified against the requested
            functions.
        cache_misses: groups looked up in the result cache and computed
            fresh (includes rejected hits).
        cache_stores: freshly computed group results written to the cache.
        cache_rejects: cached payloads discarded because verification
            against the requested functions failed (collision/corruption).
        race_groups: output groups decided by a policy-portfolio race
            (``FlowConfig.policy = "race:..."``).
        race_candidates: candidate policy runs dispatched across all
            raced groups (``race_groups`` x portfolio size, minus any
            replayed from cache/checkpoint).
        race_losers_cancelled: losing candidate submissions cancelled
            before they ran (pool futures revoked once the group's
            winner was decided or the run was interrupted).
        race_failures: candidate runs that failed permanently and were
            excluded from their group's race (the race proceeds as long
            as one candidate survives).
        remote: nested counters of the remote executor (broker address,
            tasks submitted/completed, lease expiries, shared-cache
            hits, broker errors); None for every other executor, and
            then omitted from :meth:`as_dict` -- the report's ``engine``
            section only carries a ``remote`` object on remote runs.
    """

    executor: str = "serial"
    workers: int = 1
    tasks_total: int = 0
    tasks_decompose: int = 0
    tasks_emit_lut: int = 0
    tasks_shannon: int = 0
    tasks_compose: int = 0
    queue_depth_max: int = 0
    tasks_offloaded: int = 0
    tasks_retried: int = 0
    task_timeouts: int = 0
    worker_crashes: int = 0
    groups_degraded: int = 0
    faults_injected: int = 0
    checkpoint_saved: int = 0
    checkpoint_replayed: int = 0
    checkpoint_stale_entries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_rejects: int = 0
    race_groups: int = 0
    race_candidates: int = 0
    race_losers_cancelled: int = 0
    race_failures: int = 0
    remote: dict | None = None

    def as_dict(self) -> dict:
        """JSON form for ``build_report(engine=...)``: flat scalars plus
        the nested ``remote`` object on remote runs (dropped when None)."""
        data = asdict(self)
        if data.get("remote") is None:
            del data["remote"]
        return data


_STAT_FIELD = {
    "decompose-vector": "tasks_decompose",
    "emit-lut": "tasks_emit_lut",
    "shannon-split": "tasks_shannon",
    "compose": "tasks_compose",
}


@dataclass
class Task:
    """One schedulable unit of decomposition work.

    ``run`` performs the step against the engine's emission context and
    returns the ordered list of child tasks it expands into (empty for
    leaves).  ``deps`` are ids of tasks that must be finished first.
    """

    id: int
    kind: str
    run: Callable[[], list["Task"]]
    deps: tuple[int, ...] = ()
    label: str = ""
    done: bool = False


class TaskGraph:
    """The work queue: tasks, dependency bookkeeping, and counters."""

    def __init__(self) -> None:
        """Start empty: no tasks, all per-kind counters at zero."""
        self.tasks: dict[int, Task] = {}
        self._next_id = 0
        self._kind_counts: dict[str, int] = {kind: 0 for kind in TASK_KINDS}
        self._executed = 0
        self._offloaded = 0
        self._queue_depth_max = 0

    def new_task(
        self,
        kind: str,
        run: Callable[[], list[Task]],
        deps: tuple[int, ...] = (),
        label: str = "",
    ) -> Task:
        """Register a task; ``deps`` must already exist in the graph."""
        if kind not in _STAT_FIELD:
            raise ValueError(f"unknown task kind {kind!r}")
        for dep in deps:
            if dep not in self.tasks:
                raise ValueError(f"dependency {dep} not in graph")
        task = Task(id=self._next_id, kind=kind, run=run, deps=deps, label=label)
        self._next_id += 1
        self.tasks[task.id] = task
        return task

    def execute(self, task: Task) -> list[Task]:
        """Run a task whose dependencies are met; return its children."""
        if task.done:
            raise ValueError(f"task {task.id} ({task.kind}) already executed")
        for dep in task.deps:
            if not self.tasks[dep].done:
                raise ValueError(
                    f"task {task.id} ({task.kind}) ran before dependency {dep}"
                )
        children = task.run()
        task.done = True
        self._executed += 1
        self._kind_counts[task.kind] += 1
        return children

    def note_queue_depth(self, depth: int) -> None:
        """Record the current number of runnable/queued tasks."""
        if depth > self._queue_depth_max:
            self._queue_depth_max = depth

    def merge_counts(
        self, kind_counts: dict[str, int], offloaded: bool = False
    ) -> None:
        """Fold per-kind task counts executed elsewhere (worker processes)."""
        for kind, count in kind_counts.items():
            if kind not in self._kind_counts:
                raise ValueError(f"unknown task kind {kind!r}")
            self._kind_counts[kind] += count
            self._executed += count
            if offloaded:
                self._offloaded += count

    def kind_counts(self) -> dict[str, int]:
        """Executed-task counts by kind (includes merged worker counts)."""
        return dict(self._kind_counts)

    def stats(self, executor: str = "serial", workers: int = 1) -> EngineStats:
        """Snapshot the counters as a report-ready :class:`EngineStats`."""
        return EngineStats(
            executor=executor,
            workers=workers,
            tasks_total=self._executed,
            tasks_decompose=self._kind_counts["decompose-vector"],
            tasks_emit_lut=self._kind_counts["emit-lut"],
            tasks_shannon=self._kind_counts["shannon-split"],
            tasks_compose=self._kind_counts["compose"],
            queue_depth_max=self._queue_depth_max,
            tasks_offloaded=self._offloaded,
        )
