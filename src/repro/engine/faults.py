"""Deterministic fault injection for the engine's executors.

Recovery code that only runs when hardware misbehaves is untestable by
accident -- this module makes worker failures *reproducible*.  A
:class:`FaultPlan` (``FlowConfig.fault_plan``, CLI ``--inject-faults``)
names exactly which group submissions fail and how:

- ``kill``  -- the worker process dies abruptly (``os._exit``), breaking
  the process pool: exercises pool-rebuild plus resubmission.
- ``drop``  -- the worker raises :class:`repro.errors.FaultInjected`
  before producing a result: exercises the plain retry path.
- ``delay`` -- the worker sleeps before mapping its group: exercises the
  per-task wall-clock timeout.
- ``abort`` -- the *parent* raises right after the group's result was
  merged (and stored in any result cache): simulates the coordinator
  dying mid-run so resuming from the cache is testable.

Faults address groups by their **submission ordinal** -- the 0-based
position in dispatch order, counted across all circuits of a process
batch (a serial or remote batch runs circuit after circuit, each counting
from 0) -- and
fire on specific retry *attempts* (default: only the first, so a retried
task succeeds; ``all`` makes a failure permanent).  A plan can also ask
for ``kills=N``/``drops=N``/``delays=N`` faults on seeded-random ordinals,
resolved deterministically against the run's group count, so property
tests can sweep seeds while every individual run stays reproducible.

See ``docs/RELIABILITY.md`` for the plan grammar and recovery semantics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.errors import FaultInjected

#: Fault kinds accepted by :class:`FaultSpec`.
FAULT_KINDS = ("kill", "drop", "delay", "abort")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        group: submission ordinal of the targeted group (0-based, in
            dispatch order across the whole run or batch).
        attempts: retry attempts the fault fires on (``None`` = every
            attempt, making the failure permanent).
        seconds: sleep duration for ``delay`` faults.
    """

    kind: str
    group: int
    attempts: tuple[int, ...] | None = (0,)
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (have: {FAULT_KINDS})"
            )
        if self.group < 0:
            raise ValueError("fault group ordinal must be >= 0")
        if self.seconds < 0:
            raise ValueError("fault delay must be >= 0 seconds")

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault fires on retry attempt ``attempt``."""
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible set of faults to inject into one run.

    ``specs`` are explicit faults; ``kills``/``drops``/``delays`` ask for
    that many additional faults on seeded-random group ordinals (chosen
    without replacement per kind by ``random.Random(seed)`` once the
    group count is known -- see :meth:`resolve`).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    kills: int = 0
    drops: int = 0
    delays: int = 0
    delay_seconds: float = 0.05

    def resolve(self, num_groups: int) -> "ResolvedFaults":
        """Pin the plan against a concrete group count.

        Random faults are assigned to ordinals by ``Random(seed)``,
        sampling without replacement per fault kind; explicit specs are
        kept as-is (ordinals beyond ``num_groups`` simply never fire).
        """
        specs = list(self.specs)
        rng = random.Random(self.seed)
        for kind, count, seconds in (
            ("kill", self.kills, 0.0),
            ("drop", self.drops, 0.0),
            ("delay", self.delays, self.delay_seconds),
        ):
            if count <= 0:
                continue
            chosen = rng.sample(range(num_groups), min(count, num_groups))
            specs.extend(
                FaultSpec(kind, ordinal, seconds=seconds)
                for ordinal in sorted(chosen)
            )
        return ResolvedFaults(tuple(specs))


class ResolvedFaults:
    """A fault plan pinned to concrete group ordinals (lookup table)."""

    def __init__(self, specs: tuple[FaultSpec, ...]) -> None:
        """Index ``specs`` by group ordinal for O(1) per-attempt lookup."""
        self.specs = specs
        self._by_group: dict[int, list[FaultSpec]] = {}
        for spec in specs:
            self._by_group.setdefault(spec.group, []).append(spec)

    def fault_for(self, ordinal: int, attempt: int) -> FaultSpec | None:
        """The worker-side fault firing on ``(ordinal, attempt)``, if any."""
        for spec in self._by_group.get(ordinal, ()):
            if spec.kind != "abort" and spec.fires_on(attempt):
                return spec
        return None

    def abort_after(self, ordinal: int) -> FaultSpec | None:
        """The parent-side abort fault attached to ``ordinal``, if any."""
        for spec in self._by_group.get(ordinal, ()):
            if spec.kind == "abort":
                return spec
        return None


#: Empty resolution used when no fault plan is configured.
NO_FAULTS = ResolvedFaults(())


def perform_fault(spec: FaultSpec | None, in_worker: bool) -> None:
    """Execute a fault at a task boundary.

    Called by the worker entry point (``in_worker=True``) and by the
    degraded in-parent serial path (``in_worker=False``).  ``kill`` only
    terminates real worker processes -- in the parent it raises
    :class:`FaultInjected` instead, so a permanently-failing group cannot
    take the coordinator down with it.  ``delay`` sleeps and then lets the
    task proceed; ``drop`` always raises.
    """
    if spec is None:
        return
    if spec.kind == "delay":
        time.sleep(spec.seconds)
        return
    if spec.kind == "kill" and in_worker:
        import os

        os._exit(17)
    raise FaultInjected(spec.kind, spec.group)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the CLI ``--inject-faults`` grammar into a :class:`FaultPlan`.

    Comma-separated tokens; whitespace around tokens is ignored:

    - ``kill@G`` / ``drop@G`` / ``abort@G`` -- explicit fault on group
      ordinal ``G``; ``delay=S@G`` sleeps ``S`` seconds.
    - An optional ``#A`` suffix picks the retry attempt (default ``#0``);
      ``#all`` fires on every attempt (a permanent failure).
    - ``seed=S``, ``kills=N``, ``drops=N``, ``delays=N``,
      ``delay-seconds=S`` configure the seeded-random mode.

    Example: ``"kill@1,drop@3#all,seed=7,delays=2"``.
    """
    specs: list[FaultSpec] = []
    fields = {"seed": 0, "kills": 0, "drops": 0, "delays": 0}
    delay_seconds = 0.05
    for raw in text.split(","):
        token = raw.strip()
        if not token:
            continue
        key, eq, value = token.partition("=")
        if eq and key in fields:
            fields[key] = _parse_int(token, value)
            continue
        if eq and key == "delay-seconds":
            delay_seconds = _parse_float(token, value)
            continue
        specs.append(_parse_spec(token))
    return FaultPlan(
        specs=tuple(specs), delay_seconds=delay_seconds, **fields
    )


def _parse_spec(token: str) -> FaultSpec:
    """Parse one explicit ``kind[=S]@G[#A]`` fault token."""
    body, _, attempt_part = token.partition("#")
    head, at, group_part = body.partition("@")
    if not at:
        raise ValueError(f"fault token {token!r} is missing '@<group>'")
    kind, eq, seconds_part = head.partition("=")
    seconds = _parse_float(token, seconds_part) if eq else 0.0
    if kind == "delay" and not eq:
        raise ValueError(f"fault token {token!r}: delay needs '=<seconds>'")
    group = _parse_int(token, group_part)
    if not attempt_part:
        attempts: tuple[int, ...] | None = (0,)
    elif attempt_part == "all":
        attempts = None
    else:
        attempts = (_parse_int(token, attempt_part),)
    return FaultSpec(kind, group, attempts=attempts, seconds=seconds)


def _parse_int(token: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"fault token {token!r}: {value!r} is not an integer")


def _parse_float(token: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"fault token {token!r}: {value!r} is not a number")
