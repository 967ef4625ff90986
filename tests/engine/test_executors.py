"""Executor equivalence: serial replays the recursion, process matches it."""

import pytest

from repro.boolfunc.truthtable import TruthTable
from repro.engine import synthesize_batch
from repro.engine.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    request_cancel,
    reset_cancel,
)
from repro.engine.faults import FaultPlan
from repro.errors import RunInterrupted
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.network.network import Network
from tests.mapping.test_flow import network_from_tables, ones_count_network


def multi_group_network():
    """Two independent output clusters over disjoint supports.

    Independent groups are what the process executor parallelizes, so this
    is the smallest interesting shape: each cluster decomposes on a worker.
    """
    net = Network("two_clusters")
    for i in range(12):
        net.add_input(f"x{i}")
    lo = TruthTable.from_function(6, lambda *xs: sum(xs) & 1)
    hi = TruthTable.from_function(6, lambda *xs: (sum(xs) >> 1) & 1)
    from repro.boolfunc.sop import Sop

    net.add_node("a", [f"x{i}" for i in range(6)], Sop.from_truthtable(lo))
    net.add_node("b", [f"x{i}" for i in range(6, 12)], Sop.from_truthtable(hi))
    net.set_outputs(["a", "b"])
    return net


@pytest.fixture
def clean_cancel_flag():
    """Never leak a cancel request into (or out of) a test."""
    reset_cancel()
    yield
    reset_cancel()


class TestMakeExecutor:
    def test_registry(self):
        assert set(EXECUTORS) == {"serial", "process", "remote"}

    def test_serial_default(self):
        assert isinstance(make_executor(FlowConfig()), SerialExecutor)

    def test_process_with_jobs(self):
        ex = make_executor(FlowConfig(executor="process", jobs=3))
        assert isinstance(ex, ProcessExecutor)
        assert ex.workers == 3

    def test_unknown_executor_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown executor"):
            FlowConfig(executor="quantum")


class TestSerialExecutor:
    def test_engine_stats_populated(self):
        net = ones_count_network(6, 2)
        result = synthesize(net, FlowConfig(k=4))
        stats = result.engine_stats
        assert stats.executor == "serial"
        assert stats.workers == 1
        assert stats.tasks_total > 0
        assert stats.tasks_offloaded == 0
        assert stats.tasks_emit_lut > 0
        assert stats.queue_depth_max >= 1

    @pytest.mark.parametrize("run", ["plain", "cache", "race", "faults"])
    def test_nothing_is_offloaded(self, tmp_path, run):
        # Portable serial runs map their groups in-process, not in workers.
        knobs = {
            "plain": {},
            "cache": {"cache_db": str(tmp_path / "cache.db")},
            "race": {"policy": "race:ladder-peel,flat-ladder"},
            "faults": {"fault_plan": FaultPlan()},  # a plan that fires nothing
        }[run]
        net = multi_group_network()
        stats = synthesize(net, FlowConfig(k=4, **knobs)).engine_stats
        assert stats.tasks_total > 0
        assert stats.tasks_offloaded == 0

    def test_task_totals_are_consistent(self):
        net = ones_count_network(6, 2)
        stats = synthesize(net, FlowConfig(k=4)).engine_stats
        assert stats.tasks_total == (
            stats.tasks_decompose
            + stats.tasks_emit_lut
            + stats.tasks_shannon
            + stats.tasks_compose
        )


class TestProcessExecutor:
    def test_identical_network_multi_mode(self):
        net = multi_group_network()
        serial = synthesize(net, FlowConfig(k=4, mode="multi"))
        process = synthesize(
            net, FlowConfig(k=4, mode="multi", executor="process", jobs=2)
        )
        assert write_blif(serial.network) == write_blif(process.network)
        assert serial.output_signals == process.output_signals
        assert verify_flow(net, process)

    def test_identical_network_single_mode(self):
        net = ones_count_network(7, 3)
        serial = synthesize(net, FlowConfig(k=4, mode="single"))
        process = synthesize(
            net, FlowConfig(k=4, mode="single", executor="process", jobs=2)
        )
        assert write_blif(serial.network) == write_blif(process.network)
        assert verify_flow(net, process)

    def test_offloaded_tasks_counted(self):
        net = multi_group_network()
        result = synthesize(
            net, FlowConfig(k=4, mode="multi", executor="process", jobs=2)
        )
        stats = result.engine_stats
        assert stats.executor == "process"
        assert stats.workers == 2
        assert stats.tasks_offloaded > 0
        assert stats.tasks_offloaded == stats.tasks_total

    def test_single_group_short_circuits_serially(self):
        # One group: nothing to overlap, so no worker tasks are recorded.
        net = ones_count_network(6, 1)
        result = synthesize(
            net, FlowConfig(k=4, mode="multi", executor="process", jobs=2)
        )
        assert result.engine_stats.tasks_offloaded == 0
        assert verify_flow(net, result)

    def test_records_survive_the_round_trip(self):
        net = multi_group_network()
        serial = synthesize(net, FlowConfig(k=4, mode="multi"))
        process = synthesize(
            net, FlowConfig(k=4, mode="multi", executor="process", jobs=2)
        )
        assert [vars(r) for r in serial.records] == [
            vars(r) for r in process.records
        ]


class TestBatch:
    def _networks(self):
        return [ones_count_network(6, 2), multi_group_network(),
                ones_count_network(5, 2)]

    def test_batch_serial_matches_individual_runs(self):
        nets = self._networks()
        config = FlowConfig(k=4, mode="multi")
        batch = synthesize_batch(nets, config)
        for net, res in zip(nets, batch):
            solo = synthesize(net, config)
            assert write_blif(res.network) == write_blif(solo.network)

    def test_batch_process_matches_serial(self):
        nets = self._networks()
        serial = synthesize_batch(nets, FlowConfig(k=4, mode="multi"))
        process = synthesize_batch(
            nets, FlowConfig(k=4, mode="multi", executor="process", jobs=2)
        )
        for net, a, b in zip(nets, serial, process):
            assert write_blif(a.network) == write_blif(b.network)
            assert verify_flow(net, b)

    @staticmethod
    def _spy(monkeypatch, after_prepare=None) -> tuple[list, list]:
        """Log prepares and pool submissions in order; keep the futures."""
        import repro.mapping.flow as flow_mod

        events: list[str] = []
        futures: list = []
        real_prepare = flow_mod.prepare_synthesis
        real_submit = ProcessExecutor._pool_submit

        def prepare(net, config):
            events.append("prepare")
            prep = real_prepare(net, config)
            if after_prepare is not None:
                after_prepare()
            return prep

        def submit(self, payload):
            events.append("submit")
            futures.append(real_submit(self, payload))
            return futures[-1]

        monkeypatch.setattr(flow_mod, "prepare_synthesis", prepare)
        monkeypatch.setattr(ProcessExecutor, "_pool_submit", submit)
        return events, futures

    def test_process_batch_submits_before_preparing_the_next_network(
        self, monkeypatch
    ):
        events, _ = self._spy(monkeypatch)
        synthesize_batch(
            self._networks(),
            FlowConfig(k=4, mode="multi", executor="process", jobs=2),
        )
        assert events[0] == "prepare"
        assert events.index("submit") < events.index("prepare", 1)

    def test_cancel_between_networks_stops_the_batch(
        self, monkeypatch, clean_cancel_flag
    ):
        events, futures = self._spy(monkeypatch, after_prepare=request_cancel)
        with pytest.raises(RunInterrupted):
            synthesize_batch(
                self._networks(),
                FlowConfig(k=4, mode="multi", executor="process", jobs=2),
            )
        assert events.count("prepare") == 1
        assert futures
        assert not [f for f in futures if not (f.done() or f.running())]
