"""Exception hierarchy of the repro package.

Library code raises real exceptions on every load-bearing invariant --
``assert`` statements vanish under ``python -O`` and turned broken internal
state into crashes far from the cause.  All domain errors derive from
:class:`ReproError` so callers can catch the whole family at the flow
boundary while still matching specific failures.

The classes live in their own dependency-free module so every layer (BDD
engine, IMODEC, partitioning, flow, CLI, observability) can import them
without cycles.
"""

from __future__ import annotations


class ReproError(RuntimeError):
    """Base class of all domain errors raised by the repro package."""


class DecompositionError(ReproError):
    """The decomposition machinery reached an inconsistent state.

    Raised when an internal invariant of the implicit algorithm (Lmax layer
    computation, partial-assignment refinement) is violated -- always a bug
    or an unsupported input, never a routine condition.
    """


class VerificationError(ReproError):
    """An equivalence check failed.

    Carries the failing output and a counterexample input vector when the
    check produced one (the exact BDD check always does).
    """

    def __init__(
        self,
        message: str,
        failing_output: str | None = None,
        counterexample: dict[str, bool] | None = None,
    ) -> None:
        super().__init__(message)
        self.failing_output = failing_output
        self.counterexample = counterexample


class FaultInjected(ReproError):
    """A planned fault from :mod:`repro.engine.faults` fired.

    Raised inside a worker (``drop`` faults, the parent-side form of
    ``kill``) or in the coordinator (``abort`` faults, which simulate the
    parent dying right after a group was merged and stored).  Never
    raised unless a fault plan was explicitly configured.

    Attributes:
        kind: the fault kind that fired (``kill``/``drop``/``abort``).
        group: submission ordinal of the targeted group.
    """

    def __init__(self, kind: str, group: int) -> None:
        super().__init__(f"injected fault: {kind} on group {group}")
        self.kind = kind
        self.group = group

    def __reduce__(self):
        # Exceptions pickle as (cls, self.args) by default; args holds the
        # formatted message, not (kind, group), so a drop fault crossing
        # the process-pool boundary would fail to unpickle in the pool's
        # result thread -- which *breaks the pool* instead of failing one
        # task.
        return (FaultInjected, (self.kind, self.group))


class GroupFailedError(ReproError):
    """One output group failed permanently despite retries and degradation.

    Raised by the process executor after a group exhausted its retry
    budget and (when enabled) the serial in-parent fallback also failed.
    The batch layer catches it per circuit so one poisoned circuit cannot
    abort the whole batch (see ``docs/RELIABILITY.md``).

    Attributes:
        group: submission ordinal of the failed group.
        failures: structured per-attempt failure records, each a dict with
            ``kind``/``group``/``attempt``/``error``/``seconds`` entries.
    """

    def __init__(self, group: int, failures: list[dict]) -> None:
        last = failures[-1]["error"] if failures else "unknown"
        super().__init__(
            f"group {group} failed permanently after "
            f"{len(failures)} attempt(s): {last}"
        )
        self.group = group
        self.failures = failures

    def __reduce__(self):
        # Reconstruct from (group, failures), not the formatted message
        # (see FaultInjected.__reduce__).
        return (GroupFailedError, (self.group, self.failures))


class RunInterrupted(ReproError):
    """The run was cancelled mid-drain and stopped at a safe boundary.

    Raised by the executors when a cancellation was requested
    (:func:`repro.engine.executors.request_cancel`) -- by the CLI's
    SIGINT/SIGTERM handlers or by the server's graceful drain.  By the
    time it propagates, outstanding pool futures have been cancelled, and
    every group merged before the cut is already in the configured result
    cache, so running again with the same ``--cache-db`` resumes the run
    to byte-identical output.  The CLI maps it to exit code 130 (the
    conventional interrupted-by-signal status).
    """


class RemoteTaskError(ReproError):
    """A remotely-executed group failed on or behind the broker.

    Wraps worker-side exceptions that travel back as typed error
    envelopes (see :mod:`repro.engine.remote.wire`) and broker-side
    synthetic failures such as ``LeaseExpired`` (a worker's host died or
    partitioned mid-group).  The remote executor's retry ladder treats
    it exactly like any worker exception: retry with backoff, then
    degrade to the in-parent serial path.
    """


class BudgetExceeded(ReproError):
    """A traced span blew past its soft resource budget.

    Structured so callers can degrade gracefully (fall back to a cheaper
    strategy, return partial results, abort one group instead of the whole
    run) rather than letting a pathological instance run unbounded.

    Attributes:
        span: name of the span whose budget was exceeded.
        metric: ``"seconds"`` or ``"nodes"``.
        limit: the configured threshold.
        actual: the observed value at the enforcement point.
    """

    def __init__(self, span: str, metric: str, limit: float, actual: float) -> None:
        super().__init__(
            f"span {span!r} exceeded its {metric} budget: {actual:g} > {limit:g}"
        )
        self.span = span
        self.metric = metric
        self.limit = limit
        self.actual = actual

    def __reduce__(self):
        # Reconstructible across process boundaries (see
        # FaultInjected.__reduce__).
        return (BudgetExceeded, (self.span, self.metric, self.limit, self.actual))
