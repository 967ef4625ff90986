"""Cancellation lifecycle: RunInterrupted, stored groups, resume.

An interrupt mid-run must not leave orphaned pool workers, and every
group merged before it must already be in the result cache.  These tests
drive the cancel flag directly (the CLI's signal handlers and the
server's drain both call the same :func:`request_cancel` hook) and
assert the contract: prompt :class:`RunInterrupted`, the merged groups
stored, and a re-run with the same cache that reproduces the
uninterrupted bytes exactly.
"""

import threading
import time

import pytest

from repro.benchcircuits.registry import get_circuit
from repro.engine import LadderPeelPolicy, parse_fault_plan, synthesize_batch
from repro.cache.store import open_store
from repro.engine.executors import (
    cancel_requested,
    request_cancel,
    reset_cancel,
    shutdown_pool,
)
from repro.errors import ReproError, RunInterrupted
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize


@pytest.fixture(autouse=True)
def _clean_cancel_flag():
    """Never leak a cancel request into (or out of) a test."""
    reset_cancel()
    yield
    reset_cancel()


def _rd53():
    return get_circuit("rd53").build()


def _cancel_once_stored(db: str):
    """Request a cancel as soon as the store at ``db`` holds a group."""
    deadline = time.monotonic() + 60
    while len(open_store(db)) == 0:
        if time.monotonic() > deadline:  # pragma: no cover
            break
        time.sleep(0.02)
    request_cancel()


class TestCancelFlag:
    def test_request_and_reset(self):
        assert not cancel_requested()
        request_cancel()
        assert cancel_requested()
        reset_cancel()
        assert not cancel_requested()

    def test_serial_drain_notices_the_flag(self):
        request_cancel()
        with pytest.raises(RunInterrupted):
            synthesize(_rd53(), FlowConfig())

    def test_process_drain_notices_the_flag(self):
        request_cancel()
        with pytest.raises(RunInterrupted):
            synthesize(_rd53(), FlowConfig(executor="process", jobs=2))


class TestCancelMidRun:
    def test_serial_cancel_inside_a_group(self, monkeypatch):
        # The recursion checks the flag at every vector step, so a cancel
        # raised while a group decomposes stops the run before the policy
        # is asked to decompose anything else.
        real = LadderPeelPolicy.decompose
        calls = []

        def decompose(self, bdd, vector):
            calls.append(len(vector))
            if len(calls) == 1:
                request_cancel()
            return real(self, bdd, vector)

        monkeypatch.setattr(LadderPeelPolicy, "decompose", decompose)
        with pytest.raises(RunInterrupted):
            synthesize(get_circuit("misex1").build(), FlowConfig())
        assert len(calls) == 1

    def test_cancel_flushes_checkpoint_and_resume_is_byte_identical(
        self, tmp_path
    ):
        serial = write_blif(synthesize(_rd53()).network)
        db = str(tmp_path / "run.db")
        # Group 0 completes and is stored; groups 1 and 2 sleep in their
        # workers (every attempt), pinning the parent in the collect wait
        # -- the deterministic window to cancel inside.
        config = FlowConfig(
            executor="process",
            jobs=2,
            cache_db=db,
            fault_plan=parse_fault_plan("delay=60@1#all,delay=60@2#all"),
        )

        canceller = threading.Thread(target=_cancel_once_stored, args=(db,))
        canceller.start()
        started = time.monotonic()
        try:
            with pytest.raises(RunInterrupted):
                synthesize(_rd53(), config)
        finally:
            canceller.join()
        # Prompt exit: nowhere near the 60s the faulted groups sleep.
        assert time.monotonic() - started < 30
        assert len(open_store(db)) == 1, "the merged group must be stored"

        # The CLI/server drain hook: no orphaned workers grinding on.
        shutdown_pool(force=True)
        reset_cancel()

        resumed = synthesize(
            _rd53(), FlowConfig(executor="process", jobs=2, cache_db=db)
        )
        assert write_blif(resumed.network) == serial
        assert resumed.engine_stats.cache_hits >= 1

    def test_serial_cancel_between_groups_leaves_a_resumable_checkpoint(
        self, tmp_path
    ):
        # Serial groups run one by one as the collect loop reaches them,
        # so group 0 is stored before the delayed group 1 starts.
        serial = write_blif(synthesize(_rd53()).network)
        db = str(tmp_path / "run.db")
        config = FlowConfig(
            cache_db=db,
            fault_plan=parse_fault_plan("delay=1@1,delay=1@2"),
        )

        canceller = threading.Thread(target=_cancel_once_stored, args=(db,))
        canceller.start()
        try:
            with pytest.raises(RunInterrupted):
                synthesize(_rd53(), config)
        finally:
            canceller.join()
        reset_cancel()

        resumed = synthesize(_rd53(), FlowConfig(cache_db=db))
        assert write_blif(resumed.network) == serial
        assert resumed.engine_stats.cache_hits >= 1


class TestBatchInterruptPropagation:
    def test_serial_batch_never_swallows_interrupts(self, monkeypatch):
        import repro.mapping.flow as flow_mod

        def interrupted(net, config=None):
            raise RunInterrupted("cancelled")

        monkeypatch.setattr(flow_mod, "synthesize", interrupted)
        # Pre-PR shape of the bug: the per-circuit ReproError boundary
        # would record the interrupt as a circuit failure and keep going.
        with pytest.raises(RunInterrupted):
            synthesize_batch([_rd53()], FlowConfig(), fail_fast=False)

    def test_process_batch_never_swallows_interrupts(self):
        request_cancel()
        with pytest.raises(RunInterrupted):
            synthesize_batch(
                [_rd53(), _rd53()],
                FlowConfig(executor="process", jobs=2),
                fail_fast=False,
            )


class TestBatchFailFast:
    def test_fail_fast_false_isolates_a_failing_circuit(self, monkeypatch):
        import repro.mapping.flow as flow_mod

        real = flow_mod.synthesize

        def sometimes_boom(net, config=None):
            if net.name == "rd53":
                raise ReproError("boom")
            return real(net, config)

        monkeypatch.setattr(flow_mod, "synthesize", sometimes_boom)
        misex1 = get_circuit("misex1").build()
        results = synthesize_batch(
            [_rd53(), misex1], FlowConfig(), fail_fast=False
        )
        assert isinstance(results[0], ReproError)
        assert str(results[0]) == "boom"
        assert not isinstance(results[1], ReproError)
        assert results[1].num_luts >= 1

    def test_fail_fast_true_raises_immediately(self, monkeypatch):
        import repro.mapping.flow as flow_mod

        def boom(net, config=None):
            raise ReproError("boom")

        monkeypatch.setattr(flow_mod, "synthesize", boom)
        with pytest.raises(ReproError, match="boom"):
            synthesize_batch([_rd53()], FlowConfig(), fail_fast=True)
