"""Hierarchical run tracer: spans, counters, BDD deltas, soft budgets.

The tracer models a synthesis run as a tree of *spans* (context-manager
scopes).  Spans with the same name under the same parent aggregate -- one
node accumulating total wall-clock and a call count -- so per-group or
per-iteration instrumentation stays bounded no matter how large the run.

Each span carries arbitrary numeric counters (:meth:`Tracer.add` /
:meth:`Tracer.gauge`) plus automatic deltas of every *watched* BDD manager:
nodes allocated and operation-cache hits / misses / evictions between span
entry and exit (see :meth:`Tracer.watch` and
:meth:`repro.bdd.manager.BDD.cache_stats`).

Soft budgets bound a span's wall-clock or watched-node growth.  They are
enforced at explicit :meth:`Tracer.checkpoint` calls (the flow places them
at iteration boundaries) and when a child span opens -- never retroactively
at span exit, where the work is already spent.  A violated budget raises
:class:`repro.errors.BudgetExceeded`, a structured exception callers can
catch to degrade gracefully.

The module is designed for zero-cost disabled operation: library code calls
the module-level helpers in :mod:`repro.observe`, which dispatch to the
tracer installed in a :class:`contextvars.ContextVar` or fall through to
no-ops.  Process-pool workers (``jobs > 1``) never see the parent's tracer;
the parent's spans around the pool calls still time them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.errors import BudgetExceeded
from repro.observe.stats import BddStats


@dataclass(frozen=True)
class Budget:
    """Soft resource thresholds of one span name.

    Attributes:
        seconds: wall-clock bound of a single span activation.
        nodes: bound on watched-manager node growth within one activation.

    Raises ``ValueError`` for a negative, NaN or infinite ``seconds`` and
    for a negative ``nodes``; 0 is valid and trips at the first check.
    """

    seconds: float | None = None
    nodes: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is not None and not 0 <= self.seconds < math.inf:
            raise ValueError(
                f"budget seconds must be finite and >= 0, got {self.seconds!r}"
            )
        if self.nodes is not None and self.nodes < 0:
            raise ValueError(f"budget nodes must be >= 0, got {self.nodes!r}")


@dataclass
class Span:
    """One node of the span tree (aggregated by name under its parent)."""

    name: str
    seconds: float = 0.0
    calls: int = 0
    counters: dict[str, int | float] = field(default_factory=dict)
    children: dict[str, "Span"] = field(default_factory=dict)

    # Live bookkeeping of the current activation (meaningless when closed).
    _t0: float = 0.0
    _stats0: tuple[int, int, int, int] = (0, 0, 0, 0)

    def add(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter on this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: int | float) -> None:
        """Record a high-water-mark counter (keeps the maximum seen)."""
        current = self.counters.get(name)
        if current is None or value > current:
            self.counters[name] = value

    def child(self, name: str) -> "Span":
        node = self.children.get(name)
        if node is None:
            node = Span(name)
            self.children[name] = node
        return node


class _SpanContext:
    """Reusable context manager binding one span activation to a tracer."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        return self._tracer._enter(self._name)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit()


class Tracer:
    """Collects the span tree and enforces budgets for one run.

    Example::

        tracer = Tracer(budgets={"synthesize": Budget(seconds=60)})
        with tracing(tracer):
            with tracer.span("synthesize"):
                ...
        report = build_report(tracer)
    """

    def __init__(self, budgets: dict[str, Budget] | None = None) -> None:
        self.root = Span("run")
        self.budgets: dict[str, Budget] = dict(budgets or {})
        self.failures: list[dict[str, int | float | str]] = []
        self._stack: list[Span] = [self.root]
        self._watched: list = []  # BDD managers

    # ------------------------------------------------------------------
    # BDD watching
    # ------------------------------------------------------------------

    def watch(self, bdd) -> None:
        """Include a BDD manager in node/cache delta accounting.

        Call this right after creating the manager: its whole history is
        attributed to the spans open at watch time (exact for a fresh
        manager, which is how the flow uses it -- the collapsed manager is
        born inside the ``collapse`` span).
        """
        if not any(m is bdd for m in self._watched):
            self._watched.append(bdd)

    def _watched_stats(self) -> tuple[int, int, int, int]:
        nodes = hits = misses = evictions = 0
        for bdd in self._watched:
            stats = BddStats.from_manager(bdd)
            nodes += stats.nodes
            hits += stats.hits
            misses += stats.misses
            evictions += stats.evictions
        return (nodes, hits, misses, evictions)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        """Context manager opening (or re-entering) the named child span."""
        return _SpanContext(self, name)

    @property
    def current(self) -> Span:
        """The innermost open span (the root outside any span)."""
        return self._stack[-1]

    def _enter(self, name: str) -> Span:
        self.checkpoint()  # opening a child is an enforcement point
        span = self._stack[-1].child(name)
        span.calls += 1
        span._t0 = time.perf_counter()
        span._stats0 = self._watched_stats()
        self._stack.append(span)
        return span

    def _exit(self) -> None:
        span = self._stack.pop()
        span.seconds += time.perf_counter() - span._t0
        delta = self._watched_stats()
        s0 = span._stats0
        for key, value in zip(
            ("bdd_nodes", "cache_hits", "cache_misses", "cache_evictions"),
            (delta[0] - s0[0], delta[1] - s0[1], delta[2] - s0[2], delta[3] - s0[3]),
        ):
            if value:
                span.add(key, value)

    # ------------------------------------------------------------------
    # counters and budgets
    # ------------------------------------------------------------------

    def add(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter on the innermost open span."""
        self._stack[-1].add(name, value)

    def gauge(self, name: str, value: int | float) -> None:
        """Record a maximum on the innermost open span."""
        self._stack[-1].gauge(name, value)

    def failure(self, **fields: int | float | str) -> None:
        """Record one structured task-failure event.

        Used by the fault-tolerant process executor for every failed
        attempt (timeout, worker crash, injected fault, ...).  Events
        accumulate on the tracer -- not on a span -- and surface as the
        run report's top-level ``failures`` array
        (``repro-run-report/5``); a ``task_failures`` counter is bumped
        on the innermost open span so aggregate views stay cheap.
        """
        self.failures.append(dict(fields))
        self._stack[-1].add("task_failures")

    def checkpoint(self) -> None:
        """Enforce the budgets of every open span.

        Called by the flow at iteration boundaries (and automatically when a
        child span opens).  Raises :class:`BudgetExceeded` on the first
        violated budget, outermost span first.
        """
        if not self.budgets:
            return
        now: float | None = None
        stats: tuple[int, int, int, int] | None = None
        for span in self._stack[1:]:
            budget = self.budgets.get(span.name)
            if budget is None:
                continue
            if budget.seconds is not None:
                if now is None:
                    now = time.perf_counter()
                elapsed = now - span._t0
                if elapsed > budget.seconds:
                    raise BudgetExceeded(span.name, "seconds", budget.seconds, elapsed)
            if budget.nodes is not None:
                if stats is None:
                    stats = self._watched_stats()
                grown = stats[0] - span._stats0[0]
                if grown > budget.nodes:
                    raise BudgetExceeded(span.name, "nodes", budget.nodes, grown)
