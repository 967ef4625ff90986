"""The four step kinds of the mapping recursion and the run's counters.

:meth:`repro.engine.emitter.VectorEmitter.map_vector` counts every step
of the paper's recursion (Section 7) under one of four kinds:

- ``decompose-vector``: one vector, decomposed by the policy (or split
  into single outputs in ``single`` mode);
- ``emit-lut``: one k-feasible function emitted as a LUT;
- ``shannon-split``: the split variable and cofactors of one output that
  does not shrink;
- ``compose``: one join -- a group record, a code-level bind, a Shannon
  mux, or the check that every output of a vector got a signal.

:class:`TaskCounts` holds those counts; group results carry them across
processes (``GroupResult.kind_counts``), and :meth:`TaskCounts.stats`
snapshots them as an :class:`EngineStats` for the run report's
``engine`` section (``repro-run-report/5``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

#: All step kinds, in a stable order (used by stats and reports).
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
        executor: executor name that mapped the groups.
        workers: process-pool width (1 for the serial executor).
        tasks_total: steps run, all kinds.
        tasks_decompose / tasks_emit_lut / tasks_shannon / tasks_compose:
            per-kind step counts.
        queue_depth_max: the deepest recursion level reached within any
            one group (1 for a group that needed no smaller vector),
            wherever the group was mapped or replayed from.
        tasks_offloaded: steps run inside worker processes.
        tasks_retried: group submissions retried after a failure.
        task_timeouts: group submissions abandoned for exceeding
            ``FlowConfig.task_timeout``.
        worker_crashes: process-pool breakages observed (and repaired).
        groups_degraded: groups that fell back to the in-parent serial
            path after exhausting their retry budget.
        faults_injected: faults fired by the fault-injection harness.
        cache_hits: groups replayed from the persistent result cache
            (``FlowConfig.cache_db``), verified against the requested
            functions -- also how a re-run resumes an interrupted one.
        cache_misses: groups looked up in the result cache and computed
            fresh (includes rejected hits).
        cache_stores: freshly computed group results written to the cache.
        cache_rejects: cached payloads discarded because verification
            against the requested functions failed (collision/corruption).
        remote: nested counters of the remote executor (broker address,
            ``tasks_submitted``, ``tasks_completed``, ``lease_expiries``,
            ``broker_errors``); None for every other executor, and
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
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_rejects: int = 0
    remote: dict | None = None

    def as_dict(self) -> dict:
        """JSON form for ``build_report(engine=...)``: flat scalars plus
        the nested ``remote`` object on remote runs (dropped when None)."""
        data = asdict(self)
        if data.get("remote") is None:
            del data["remote"]
        return data


class TaskCounts:
    """Per-kind step counts of one run and its depth high-water mark."""

    def __init__(self) -> None:
        """Start with every kind at zero."""
        self._kind_counts: dict[str, int] = dict.fromkeys(TASK_KINDS, 0)
        self._offloaded = 0
        self._depth_max = 0

    def count(self, kind: str) -> None:
        """Count one step of ``kind`` run in this process."""
        self._kind_counts[kind] += 1

    def note_depth(self, depth: int) -> None:
        """Record a recursion level reached (here or in a merged group)."""
        if depth > self._depth_max:
            self._depth_max = depth

    @property
    def depth_max(self) -> int:
        """The deepest recursion level recorded so far."""
        return self._depth_max

    def merge_counts(
        self, kind_counts: dict[str, int], offloaded: bool = False
    ) -> None:
        """Fold per-kind counts of a group mapped elsewhere (a worker or
        a cache entry)."""
        for kind, count in kind_counts.items():
            if kind not in self._kind_counts:
                raise ValueError(f"unknown task kind {kind!r}")
            self._kind_counts[kind] += count
            if offloaded:
                self._offloaded += count

    def kind_counts(self) -> dict[str, int]:
        """Step counts by kind (including merged counts)."""
        return dict(self._kind_counts)

    def stats(self, executor: str = "serial", workers: int = 1) -> EngineStats:
        """Snapshot the counters as a report-ready :class:`EngineStats`."""
        counts = self._kind_counts
        return EngineStats(
            executor=executor,
            workers=workers,
            tasks_total=sum(counts.values()),
            tasks_decompose=counts["decompose-vector"],
            tasks_emit_lut=counts["emit-lut"],
            tasks_shannon=counts["shannon-split"],
            tasks_compose=counts["compose"],
            queue_depth_max=self._depth_max,
            tasks_offloaded=self._offloaded,
        )
