"""Fault tolerance of the process and serial executors.

Property tests of the reliability contract: a run with injected faults
(worker kills, dropped results, delays, timeouts) must produce BLIF
byte-identical to a fault-free serial run; an interrupted run must resume
to the same bytes when it runs again with the same result cache
(``cache_db``), a batch as well as a single circuit; a crashing circuit
in a batch must fail alone, and a batch that unwinds early must leave no
group queued on the pool.  The fault and resume classes run once per
executor: the ``*Serial`` subclasses repeat them with every group mapped
in the parent.
"""

import multiprocessing
import os
import signal
import threading
from concurrent.futures import BrokenExecutor

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.engine import synthesize_batch
from repro.engine.executors import ProcessExecutor, shutdown_pool
from repro.engine.faults import FaultPlan, FaultSpec, parse_fault_plan
from repro.errors import FaultInjected, GroupFailedError, ReproError
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize
from tests.mapping.test_flow import ones_count_network


@pytest.fixture(autouse=True)
def fresh_pool():
    """Start every test on a fresh worker pool.

    A kill fault is noticed by the pool's management thread asynchronously,
    so a pool left behind by a previous test may break *later* -- which the
    executor recovers from, but the recovery inflates this test's retry and
    crash counters nondeterministically.
    """
    from repro.engine.executors import _reset_pool

    _reset_pool()
    yield


def bench(name: str, make_rugged: bool = False):
    net = get_circuit(name).build()
    if make_rugged:
        rugged(net)
    return net


def process_config(**kwargs) -> FlowConfig:
    return FlowConfig(executor="process", jobs=2, **kwargs)


def serial_config(**kwargs) -> FlowConfig:
    return FlowConfig(**kwargs)


class TestFaultEquivalence:
    """Seeded faults never change the mapped network, only its wall-clock."""

    config = staticmethod(process_config)

    @pytest.mark.parametrize("name,make_rugged", [
        ("rd53", False),     # 3 groups
        ("misex1", True),    # 4 groups, through the rugged script
        ("5xp1", True),      # 6 groups, through the rugged script
    ])
    def test_seeded_kills_and_delays_are_invisible(self, name, make_rugged):
        net = bench(name, make_rugged)
        baseline = synthesize(net, FlowConfig())
        plan = FaultPlan(seed=3, kills=2, delays=1, delay_seconds=0.01)
        faulty = synthesize(net, self.config(fault_plan=plan))
        assert write_blif(faulty.network) == write_blif(baseline.network)
        stats = faulty.engine_stats
        assert stats.faults_injected > 0
        assert stats.tasks_retried > 0

    def test_drop_fault_retries_to_the_same_bytes(self):
        net = bench("rd53")
        baseline = synthesize(net, FlowConfig())
        plan = FaultPlan(specs=(FaultSpec("drop", group=1),))
        faulty = synthesize(net, self.config(fault_plan=plan))
        assert write_blif(faulty.network) == write_blif(baseline.network)
        assert faulty.engine_stats.tasks_retried == 1

    def test_timeout_retries_to_the_same_bytes(self):
        net = bench("rd53")
        baseline = synthesize(net, FlowConfig())
        plan = FaultPlan(specs=(
            FaultSpec("delay", group=1, seconds=5.0),
        ))
        faulty = synthesize(
            net, self.config(fault_plan=plan, task_timeout=0.25)
        )
        assert write_blif(faulty.network) == write_blif(baseline.network)
        assert faulty.engine_stats.task_timeouts >= 1

    def test_exhausted_retries_degrade_to_serial(self):
        net = bench("rd53")
        baseline = synthesize(net, FlowConfig())
        # Fails both pool attempts (0 and 1 = task_retries), but not the
        # in-parent degraded attempt -- a truly permanent fault (attempts
        # = None) fails even the serial fallback, by design.
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=1, attempts=(0, 1)),
        ))
        faulty = synthesize(
            net, self.config(fault_plan=plan, task_retries=1)
        )
        assert write_blif(faulty.network) == write_blif(baseline.network)
        stats = faulty.engine_stats
        assert stats.groups_degraded == 1
        assert stats.tasks_retried == 1
        assert stats.tasks_offloaded < stats.tasks_total

    def test_permanent_failure_without_degradation_raises(self):
        # attempts=None fails the in-parent degraded attempt as well.
        net = bench("rd53")
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=1, attempts=None),
        ))
        with pytest.raises(GroupFailedError, match="group 1"):
            synthesize(net, self.config(fault_plan=plan, task_retries=1))


class TestFaultEquivalenceSerial(TestFaultEquivalence):
    """The same faults with every group mapped in the parent, where
    ``kill`` raises instead of exiting the process."""

    config = staticmethod(serial_config)
    # task_timeout cannot pre-empt a group running in the parent.
    test_timeout_retries_to_the_same_bytes = None


class TestCheckpointResume:
    """Resume from the result cache: each merged group is stored before
    the next is collected, so a re-run with the same ``cache_db`` replays
    every group merged before the cut."""

    config = staticmethod(process_config)

    def test_aborted_run_resumes_to_the_same_bytes(self, tmp_path):
        net = bench("rd53")
        baseline = synthesize(net, FlowConfig())
        db = str(tmp_path / "run.db")

        # The coordinator "dies" right after merging (and storing) group
        # 1; groups 0 and 1 are in the store, group 2 is not.
        plan = FaultPlan(specs=(FaultSpec("abort", group=1),))
        with pytest.raises(FaultInjected, match="abort"):
            synthesize(net, self.config(fault_plan=plan, cache_db=db))

        resumed = synthesize(net, self.config(cache_db=db))
        assert write_blif(resumed.network) == write_blif(baseline.network)
        assert resumed.engine_stats.cache_hits == 2

    def test_kill_at_checkpoint_then_resume(self, tmp_path):
        # A worker kill *and* a coordinator abort in the same run: the
        # retried group is still stored, and the resumed run replays it.
        net = bench("misex1", make_rugged=True)
        baseline = synthesize(net, FlowConfig())
        db = str(tmp_path / "run.db")
        plan = FaultPlan(specs=(
            FaultSpec("kill", group=0),
            FaultSpec("abort", group=2),
        ))
        with pytest.raises(FaultInjected, match="abort"):
            synthesize(net, self.config(fault_plan=plan, cache_db=db))
        resumed = synthesize(net, self.config(cache_db=db))
        assert write_blif(resumed.network) == write_blif(baseline.network)
        assert resumed.engine_stats.cache_hits == 3

    def test_completed_checkpoint_replays_everything(self, tmp_path):
        net = bench("rd53")
        db = str(tmp_path / "run.db")
        first = synthesize(net, self.config(cache_db=db))
        assert first.engine_stats.cache_stores == 3
        resumed = synthesize(net, self.config(cache_db=db))
        assert write_blif(resumed.network) == write_blif(first.network)
        stats = resumed.engine_stats
        assert stats.cache_hits == 3
        # Replayed groups still fold their recorded task counts in, but no
        # worker ever ran: nothing failed, nothing retried.
        assert stats.tasks_retried == 0
        assert stats.worker_crashes == 0


class TestCheckpointResumeSerial(TestCheckpointResume):
    config = staticmethod(serial_config)


class TestCheckpointAcrossExecutors:
    @pytest.mark.parametrize("writer,reader", [
        (process_config, serial_config),
        (serial_config, process_config),
    ], ids=["process-to-serial", "serial-to-process"])
    def test_resume_under_the_other_executor(self, tmp_path, writer, reader):
        net = bench("misex1", make_rugged=True)
        baseline = synthesize(net, FlowConfig())
        db = str(tmp_path / "run.db")
        plan = FaultPlan(specs=(FaultSpec("abort", group=1),))
        with pytest.raises(FaultInjected, match="abort"):
            synthesize(net, writer(fault_plan=plan, cache_db=db))
        resumed = synthesize(net, reader(cache_db=db))
        assert write_blif(resumed.network) == write_blif(baseline.network)
        assert resumed.engine_stats.cache_hits == 2


class TestBatchResume:
    """A batch resumes from the result cache like a single run does."""

    NAMES = ("rd53", "misex1", "5xp1")  # 3, 4 and 6 groups

    def _resume(self, tmp_path, config, plan):
        db = str(tmp_path / "run.db")
        baseline = [
            write_blif(synthesize(bench(name), FlowConfig()).network)
            for name in self.NAMES
        ]
        with pytest.raises(FaultInjected, match="abort"):
            synthesize_batch(
                [bench(name) for name in self.NAMES],
                config(fault_plan=parse_fault_plan(plan), cache_db=db),
            )
        resumed = synthesize_batch(
            [bench(name) for name in self.NAMES], config(cache_db=db)
        )
        assert [write_blif(r.network) for r in resumed] == baseline
        return [r.engine_stats.cache_hits for r in resumed]

    def test_process_batch_replays_every_group_merged_before_the_abort(
        self, tmp_path
    ):
        # Batch ordinals run across the circuits: ordinal 5 is misex1's
        # third group, so rd53's three and misex1's first three are
        # stored, and 5xp1 was never collected.
        hits = self._resume(tmp_path, process_config, "abort@5")
        assert hits == [3, 3, 0]

    def test_serial_batch_replays_every_group_merged_before_the_abort(
        self, tmp_path
    ):
        # A serial batch maps circuit after circuit, each with its own
        # ordinals: the abort after rd53's group 1 ends the batch there.
        hits = self._resume(tmp_path, serial_config, "abort@1")
        assert hits == [2, 0, 0]


class TestBatchIsolation:
    """One crashing circuit must not take its batch siblings down."""

    def _networks(self):
        return [bench("rd53"), ones_count_network(6, 2),
                bench("misex1", make_rugged=True)]

    def test_failed_circuit_is_isolated(self):
        nets = self._networks()
        config = FlowConfig(k=4)
        solo = [synthesize(net, config) for net in nets]

        # rd53 owns batch ordinals 0..(its group count - 1); a permanent
        # fault on ordinal 0, which fails its degraded attempt too, kills
        # only rd53.
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=0, attempts=None),
        ))
        results = synthesize_batch(
            nets,
            FlowConfig(
                k=4, executor="process", jobs=2, task_retries=1,
                fault_plan=plan,
            ),
            fail_fast=False,
        )
        assert isinstance(results[0], GroupFailedError)
        for i in (1, 2):
            assert not isinstance(results[i], ReproError)
            assert write_blif(results[i].network) == write_blif(
                solo[i].network
            )

    def test_fail_fast_still_raises(self):
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=0, attempts=None),
        ))
        with pytest.raises(GroupFailedError):
            synthesize_batch(
                self._networks(),
                FlowConfig(
                    k=4, executor="process", jobs=2, task_retries=1,
                    fault_plan=plan,
                ),
            )

    def test_worker_kill_in_one_circuit_spares_the_others(self):
        nets = self._networks()
        config = FlowConfig(k=4)
        solo = [synthesize(net, config) for net in nets]
        # A kill breaks the shared pool; the executor rebuilds it and every
        # circuit -- including the faulted one -- completes identically.
        plan = FaultPlan(specs=(FaultSpec("kill", group=0),))
        results = synthesize_batch(
            nets,
            FlowConfig(k=4, executor="process", jobs=2, fault_plan=plan),
            fail_fast=False,
        )
        for a, b in zip(solo, results):
            assert write_blif(a.network) == write_blif(b.network)

    def test_fail_fast_cancels_the_queued_groups_of_every_network(
        self, monkeypatch
    ):
        # rd53 owns ordinals 0-2, misex1 3-6 and 5xp1 7-12.  rd53's first
        # group fails for good while misex1's first group holds the one
        # worker; the raise must cancel the groups still queued behind it,
        # not only rd53's own.
        futures = spy_futures(monkeypatch)
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=0, attempts=None),
            FaultSpec("delay", group=3, seconds=2.0),
        ))
        with pytest.raises(GroupFailedError):
            synthesize_batch(
                [bench("rd53"), bench("misex1"), bench("5xp1")],
                FlowConfig(
                    executor="process", jobs=1, task_retries=0,
                    fault_plan=plan,
                ),
            )
        assert len(futures) == 13
        assert not queued(futures)
        shutdown_pool(force=True)  # stop the delayed group still running

    def test_cancelled_groups_do_not_kill_a_breaking_pool(self, monkeypatch):
        # Group 0 fails for good while group 1 holds the one worker, so the
        # batch cancels the groups still queued on the pool; then the worker
        # dies.  Failing the pool's pending futures must skip the cancelled
        # ones: the pool's manager thread used to die there with
        # InvalidStateError, before failing the rest of its futures or
        # reaping its workers.  (A kill fault would race the pool's own
        # purge of cancelled items; killing the busy worker does not.)
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        futures = spy_futures(monkeypatch)
        plan = FaultPlan(specs=(
            FaultSpec("drop", group=0, attempts=None),
            FaultSpec("delay", group=1, seconds=60.0),
        ))
        with pytest.raises(GroupFailedError):
            synthesize_batch(
                [bench("rd53"), bench("misex1"), bench("5xp1")],
                FlowConfig(
                    executor="process", jobs=1, task_retries=0,
                    fault_plan=plan,
                ),
            )
        assert any(f.cancelled() for f in futures)
        for worker in multiprocessing.active_children():
            os.kill(worker.pid, signal.SIGKILL)
        assert isinstance(futures[1].exception(timeout=60), BrokenExecutor)
        shutdown_pool()  # joins the pool's manager thread
        assert not errors, [e.exc_value for e in errors]

    def test_prepare_failure_is_isolated(self, monkeypatch):
        nets = [bench("rd53"), bench("misex1"), bench("5xp1")]
        solo = [synthesize(net, FlowConfig()) for net in nets]
        fail_to_prepare(monkeypatch, nets[1])
        results = synthesize_batch(
            nets, FlowConfig(executor="process", jobs=2), fail_fast=False
        )
        assert isinstance(results[1], ReproError)
        assert "cannot prepare" in str(results[1])
        for i in (0, 2):
            assert write_blif(results[i].network) == write_blif(
                solo[i].network
            )

    def test_prepare_failure_under_fail_fast_cancels_queued_groups(
        self, monkeypatch
    ):
        nets = [bench("rd53"), bench("misex1"), bench("5xp1")]
        futures = spy_futures(monkeypatch)
        fail_to_prepare(monkeypatch, nets[1])
        with pytest.raises(ReproError, match="cannot prepare"):
            synthesize_batch(nets, FlowConfig(executor="process", jobs=2))
        assert not queued(futures)


def spy_futures(monkeypatch) -> list:
    """Record every future the process executor hands out."""
    futures = []
    real = ProcessExecutor._pool_submit

    def submit(self, payload):
        futures.append(real(self, payload))
        return futures[-1]

    monkeypatch.setattr(ProcessExecutor, "_pool_submit", submit)
    return futures


def queued(futures) -> list:
    """The futures still waiting for a worker: not done, cancelled or running."""
    return [f for f in futures if not (f.done() or f.running())]


def fail_to_prepare(monkeypatch, network) -> None:
    """Make ``prepare_synthesis`` raise a ReproError for one network."""
    import repro.mapping.flow as flow_mod

    real = flow_mod.prepare_synthesis

    def prepare(net, config):
        if net is network:
            raise ReproError("cannot prepare this circuit")
        return real(net, config)

    monkeypatch.setattr(flow_mod, "prepare_synthesis", prepare)
