"""Batch synthesis: many networks through one shared work queue.

Under any executor but ``process`` this is a loop over :func:`synthesize`.
Under the process executor the batch is a pipeline: the parent collapses and
partitions one network, submits its groups to the shared process pool at
once, and only then prepares the next network, so the pool maps the groups
of earlier networks while the parent partitions later ones.  Every network
is collected afterwards, in input order.  Submission ordinals count groups
in network order across the whole batch.  A seeded-random fault plan
samples its ordinals from the batch's total group count, so only a batch
with such a plan prepares every network before its first submission.

Results come back in input order and are identical to per-network
:func:`synthesize` calls with the same configuration (the executor
guarantee is per-group, so batching does not change any mapped network).

**Failure isolation**: each circuit prepares and collects inside its own
failure boundary, so a worker crash (or any permanent group failure) in
one circuit fails *only that circuit* -- the shared pool is rebuilt by the
executor's retry machinery and the remaining circuits complete.  With
``fail_fast=False`` the failed circuit's slot holds the exception instead
of a :class:`FlowResult`; the CLI reports it and signals partial failure
through the exit code (see ``docs/RELIABILITY.md``).  Whenever the batch
unwinds early, every submitted future it has not collected is cancelled,
so no orphaned group keeps the shared pool busy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro import observe
from repro.engine.executors import ProcessExecutor, cancel_requested
from repro.engine.faults import NO_FAULTS
from repro.errors import ReproError, RunInterrupted

if TYPE_CHECKING:  # pragma: no cover - type-only (flow imports engine)
    from repro.mapping.flow import FlowConfig, FlowResult
    from repro.network.network import Network


def synthesize_batch(
    networks: Sequence["Network"],
    config: "FlowConfig | None" = None,
    fail_fast: bool = True,
) -> list:
    """Map every network; one shared, pipelined queue under the process executor.

    Returns one entry per input network, in order.  With the default
    ``fail_fast=True`` the first failing circuit raises; with
    ``fail_fast=False`` a failing circuit's entry is the
    :class:`repro.errors.ReproError` that killed it while every other
    circuit still maps normally.
    """
    from repro.mapping.flow import FlowConfig, prepare_synthesis, synthesize

    config = config or FlowConfig()
    if config.executor != "process":
        results: list = []
        for net in networks:
            try:
                results.append(synthesize(net, config))
            except RunInterrupted:
                raise  # whole-run teardown, never a per-circuit failure
            except ReproError as exc:
                if fail_fast:
                    raise
                results.append(exc)
        return results

    def prepare(net: "Network"):
        """The network's prepared run, or (``fail_fast=False``) its error."""
        if cancel_requested():
            raise RunInterrupted("batch cancelled (signal or server drain)")
        try:
            return prepare_synthesis(net, config)
        except RunInterrupted:
            raise  # whole-run teardown, never a per-circuit failure
        except ReproError as exc:
            if fail_fast:
                raise
            observe.add("batch_circuits_failed")
            return exc

    plan = config.fault_plan
    preps: list = [None] * len(networks)
    if plan is not None and max(plan.kills, plan.drops, plan.delays) > 0:
        preps = [prepare(net) for net in networks]
        faults = plan.resolve(
            sum(len(p.groups) for p in preps if not isinstance(p, ReproError))
        )
    else:
        faults = plan.resolve(0) if plan is not None else NO_FAULTS

    results = [None] * len(networks)
    dispatched = []
    try:
        first_ordinal = 0
        for slot, net in enumerate(networks):
            prep = preps[slot] if preps[slot] is not None else prepare(net)
            if isinstance(prep, ReproError):
                results[slot] = prep
                continue
            with observe.span("engine-dispatch"):
                observe.add("batch_networks")
                observe.add("groups", len(prep.groups))
                subs = prep.engine.executor.submit_groups(
                    prep.engine,
                    prep.group_nodes,
                    first_ordinal=first_ordinal,
                    faults=faults,
                )
            dispatched.append((slot, prep, subs))
            first_ordinal += len(prep.groups)
        with observe.span("engine-collect"):
            for slot, prep, subs in dispatched:
                try:
                    signals = prep.engine.executor.collect_groups(
                        prep.engine, subs, faults=faults
                    )
                    results[slot] = prep.finish(signals)
                except RunInterrupted:
                    raise  # whole-run teardown, never a per-circuit failure
                except ReproError as exc:
                    if fail_fast:
                        raise
                    ProcessExecutor._cancel_outstanding(subs)
                    observe.add("batch_circuits_failed")
                    results[slot] = exc
    except BaseException:
        # Futures that are done or running ignore the cancel; queued ones
        # must not keep the shared pool busy after the batch is dead.
        for _, prep, subs in dispatched:
            ProcessExecutor._cancel_outstanding(subs)
        raise
    return results
