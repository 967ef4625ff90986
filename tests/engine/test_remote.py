"""The remote executor: broker, workers, and byte-identity vs serial.

Property tests of the ISSUE's acceptance bar: a remote run against a
localhost broker with two workers must produce BLIF byte-identical to a
serial run -- including under injected worker death (retry, then degrade
to serial) and across an abort -> resume from the coordinator's result
cache.  Plus broker-level
lease semantics (expiry requeues with the fault stripped, a second
expiry fails the task) exercised with handcrafted envelopes.
"""

import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.engine.remote import (
    BrokerClient,
    BrokerConfig,
    BrokerUnavailable,
    TaskBroker,
    run_worker,
)
from repro.engine.remote.executor import CONNECT_WAIT_SECONDS
from repro.engine.remote.wire import (
    TASK_SCHEMA,
    RemoteWireError,
    config_from_json,
    config_to_json,
    parse_result,
)
from repro.errors import FaultInjected
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize


@pytest.fixture(autouse=True)
def fresh_pool():
    """Degrade-to-serial paths touch the shared pool; start clean."""
    from repro.engine.executors import _reset_pool

    _reset_pool()
    yield


@pytest.fixture
def broker():
    """One in-process broker on a free port; yields (broker, 'host:port')."""
    b = TaskBroker(BrokerConfig(port=0))
    host, port = b.start()
    yield b, f"{host}:{port}"
    b.stop()


@contextlib.contextmanager
def worker_threads(address: str, count: int = 2):
    """``count`` in-process worker loops against ``address``.

    In-process workers must never see a kill fault (``os._exit`` would
    take the test process down); kill scenarios use subprocess workers.
    """
    stop = threading.Event()
    threads = [
        threading.Thread(
            target=run_worker,
            args=(address,),
            kwargs={"name": f"t{i}", "stop": stop, "poll_seconds": 0.1},
            daemon=True,
        )
        for i in range(count)
    ]
    for t in threads:
        t.start()
    try:
        yield
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)


@contextlib.contextmanager
def worker_processes(address: str, count: int = 1):
    """``count`` subprocess workers (safe to kill: faults fire there)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--broker", address, "--poll-seconds", "0.1",
             "--name", f"p{i}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(count)
    ]
    try:
        yield procs
    finally:
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def bench(name: str, make_rugged: bool = False):
    net = get_circuit(name).build()
    if make_rugged:
        rugged(net)
    return net


def remote_config(address: str, **kwargs) -> FlowConfig:
    return FlowConfig(executor="remote", broker=address, **kwargs)


class TestByteIdentity:
    """Remote == serial, byte for byte, with honest counters."""

    @pytest.mark.parametrize("name,make_rugged,groups", [
        ("rd53", False, 3),
        ("misex1", True, 4),
    ])
    def test_remote_matches_serial(self, broker, name, make_rugged, groups):
        _, address = broker
        net = bench(name, make_rugged)
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_threads(address, count=2):
            res = synthesize(net.copy(), remote_config(address))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.executor == "remote"
        assert stats.remote is not None
        assert stats.remote["broker"] == address
        assert stats.remote["tasks_submitted"] == groups
        assert stats.remote["tasks_completed"] == groups
        assert stats.remote["broker_errors"] == 0
        assert stats.groups_degraded == 0

    def test_endless_task_timeout_gets_a_finite_lease(self, broker):
        # The broker refuses an infinite lease, so the coordinator falls
        # back to its default one instead of degrading every group.
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_threads(address, count=2):
            res = synthesize(
                net.copy(), remote_config(address, task_timeout=math.inf)
            )
        assert write_blif(res.network) == baseline
        assert res.engine_stats.remote["tasks_completed"] == 3
        assert res.engine_stats.groups_degraded == 0

    def test_single_group_never_contacts_the_broker(self):
        # 9sym has one output -> one group: the base class short-circuits
        # to the serial path, so even an unreachable broker is fine.
        net = bench("9sym")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        res = synthesize(net.copy(), remote_config("127.0.0.1:1"))
        assert write_blif(res.network) == baseline
        assert res.engine_stats.remote["tasks_submitted"] == 0

    def test_unreachable_broker_fails_fast(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.remote.executor.CONNECT_WAIT_SECONDS", 0.5
        )
        net = bench("rd53")
        with pytest.raises(BrokerUnavailable, match="healthz"):
            synthesize(net, remote_config("127.0.0.1:1"))


class TestDeadHosts:
    """Dead or absent workers feed the inherited retry/degrade ladder."""

    def test_no_workers_degrades_every_group_to_serial(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        res = synthesize(net.copy(), remote_config(
            address, task_timeout=0.75, task_retries=0,
        ))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.groups_degraded == 3
        assert stats.task_timeouts == 3

    def test_worker_kill_mid_group_retries_to_identical_bytes(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_processes(address, count=2) as procs:
            res = synthesize(net.copy(), remote_config(
                address,
                fault_plan=_kill_plan(0),
                task_timeout=3.0,
                task_retries=1,
            ))
            # The fault took exactly one worker down.
            time.sleep(0.2)
            assert sum(1 for p in procs if p.poll() is not None) == 1
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.faults_injected == 1
        assert stats.tasks_retried >= 1
        assert stats.groups_degraded == 0

    def test_worker_kill_with_no_survivor_degrades(self, broker):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        with worker_processes(address, count=1):
            res = synthesize(net.copy(), remote_config(
                address,
                fault_plan=_kill_plan(0),
                task_timeout=1.0,
                task_retries=0,
            ))
        assert write_blif(res.network) == baseline
        assert res.engine_stats.groups_degraded >= 1


def _kill_plan(group: int):
    from repro.engine.faults import parse_fault_plan

    return parse_fault_plan(f"kill@{group}")


class TestCheckpointResume:
    """Abort -> re-run with the same result cache over the remote
    executor is byte-identical."""

    def test_abort_then_resume(self, broker, tmp_path):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        db = str(tmp_path / "remote.db")
        from repro.engine.faults import parse_fault_plan

        with worker_threads(address, count=2):
            with pytest.raises(FaultInjected, match="abort"):
                synthesize(net.copy(), remote_config(
                    address,
                    fault_plan=parse_fault_plan("abort@1"),
                    cache_db=db,
                ))
            res = synthesize(net.copy(), remote_config(address, cache_db=db))
        assert write_blif(res.network) == baseline
        stats = res.engine_stats
        assert stats.cache_hits == 2
        # Only the group the abort cut short is recomputed remotely.
        assert stats.remote["tasks_submitted"] == 1


class TestSharedCache:
    """The coordinator's own result cache serves remote runs."""

    def test_coordinator_cache_serves_remote_runs(self, broker, tmp_path):
        _, address = broker
        net = bench("rd53")
        baseline = write_blif(synthesize(net.copy(), FlowConfig()).network)
        db = str(tmp_path / "results.db")
        with worker_threads(address, count=2):
            cold = synthesize(net.copy(), remote_config(address, cache_db=db))
            warm = synthesize(net.copy(), remote_config(address, cache_db=db))
        assert write_blif(cold.network) == baseline
        assert write_blif(warm.network) == baseline
        assert warm.engine_stats.cache_hits == 3
        assert cold.engine_stats.cache_stores == 3
        # Every group was answered (and verified) before submission.
        assert warm.engine_stats.remote["tasks_submitted"] == 0

    def test_cache_answered_run_needs_no_broker(self, tmp_path):
        # The broker is contacted at the first real submission, so a run
        # the cache answers completely never waits for an absent broker.
        net = bench("rd53")
        db = str(tmp_path / "results.db")
        cold = synthesize(net.copy(), FlowConfig(cache_db=db))
        start = time.monotonic()
        warm = synthesize(net.copy(), remote_config("127.0.0.1:1", cache_db=db))
        elapsed = time.monotonic() - start
        golden = "18202d2aa0294ba9a10e87feafb7ec980560627b40e756a6deccf2482c64816f"
        blif = write_blif(warm.network)
        assert blif == write_blif(cold.network)
        assert hashlib.sha256(blif.encode()).hexdigest() == golden
        assert warm.engine_stats.cache_hits == 3
        assert warm.engine_stats.remote["tasks_submitted"] == 0
        assert elapsed < CONNECT_WAIT_SECONDS / 2


def make_envelope(task_id: str, lease: float, fault: bool = True) -> dict:
    """A minimal valid task envelope (the broker treats payloads opaquely)."""
    return {
        "schema": TASK_SCHEMA,
        "id": task_id,
        "lease_seconds": lease,
        "max_requeues": 1,
        "payload": {
            "fault": {"kind": "kill", "group": 0} if fault else None
        },
    }


class TestLeaseSemantics:
    """Broker-level lease expiry: requeue once (fault stripped), then fail."""

    def test_expiry_requeues_with_fault_stripped_then_fails(self, broker):
        b, address = broker
        client = BrokerClient(address)
        assert client.submit_task(
            make_envelope("lease-test", lease=0.2)
        )["accepted"]

        first = client.next_task("w1", wait=1.0)["task"]
        assert first["id"] == "lease-test"
        assert first["payload"]["fault"] is not None
        time.sleep(0.3)  # w1 "dies": lease expires unanswered

        second = client.next_task("w2", wait=1.0)["task"]
        assert second["id"] == "lease-test"
        # The armed fault fires exactly once; the requeue strips it so
        # one injected death cannot cascade across workers.
        assert second["payload"]["fault"] is None
        time.sleep(0.3)  # w2 "dies" too: requeue budget exhausted

        status = client.task_status("lease-test")
        assert status["state"] == "done"
        assert status["ok"] is False
        assert status["error"]["type"] == "LeaseExpired"
        assert status["requeues"] == 2

    def test_cancel_reports_never_ran(self, broker):
        _, address = broker
        client = BrokerClient(address)
        client.submit_task(make_envelope("c1", lease=30.0))
        assert client.cancel("c1")["cancelled"] is True
        client.submit_task(make_envelope("c2", lease=30.0))
        client.next_task("w1", wait=1.0)
        # Leased once: the Future.cancel contract says "not cancelled".
        assert client.cancel("c2")["cancelled"] is False
        assert client.cancel("missing")["known"] is False

    def test_duplicate_submission_rejected(self, broker):
        _, address = broker
        client = BrokerClient(address)
        assert client.submit_task(make_envelope("dup", 30.0))["accepted"]
        assert not client.submit_task(make_envelope("dup", 30.0))["accepted"]

    def test_draining_broker_tells_workers_to_exit(self, broker):
        b, address = broker
        client = BrokerClient(address)
        b.draining = True
        try:
            assert client.next_task("w1", wait=0.1)["draining"] is True
        finally:
            # Poked the flag without running the real drain; restore it so
            # the fixture's stop() performs the actual shutdown.
            b.draining = False


def post_raw(address: str, path: str, data: bytes) -> int:
    """POST raw bytes to the broker; returns the HTTP status."""
    req = urllib.request.Request(
        f"http://{address}{path}", data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestMalformedRequests:
    """Malformed bodies and envelopes answer 400; the broker stays up."""

    @pytest.mark.parametrize("path,body", [
        ("/tasks/next", b'{"wait": "x"}'),
        ("/tasks/next", b"[1, 2]"),
        ("/tasks/next", b'{"wait": -1}'),
        ("/tasks/next", b'{"wait": Infinity}'),
        ("/tasks/next", b'{"worker": 7}'),
        ("/tasks", json.dumps(make_envelope("n", lease=-5)).encode()),
        ("/tasks", json.dumps(make_envelope("i", lease=math.inf)).encode()),
        ("/tasks", json.dumps(
            {**make_envelope("r", lease=30.0), "max_requeues": -3}
        ).encode()),
    ], ids=[
        "wait-string", "poll-not-object", "wait-negative", "wait-infinite",
        "worker-not-string", "lease-negative", "lease-infinite",
        "requeues-negative",
    ])
    def test_answers_400_and_keeps_serving(self, broker, path, body):
        b, address = broker
        assert post_raw(address, path, body) == 400
        assert BrokerClient(address).healthz() == {"status": "ok"}
        assert b.stats()["counters"]["tasks_submitted"] == 0


class TestResultSchema:
    def test_a_version_1_result_is_refused(self):
        # A version 1 worker maps a raced payload with its first
        # candidate only; its results must not reach a coordinator.
        envelope = {
            "schema": "repro-remote-result/1",
            "id": "t1",
            "worker": "old",
            "ok": True,
            "result": {},
        }
        with pytest.raises(RemoteWireError, match="repro-remote-result/2"):
            parse_result(envelope)


class TestTaskConfig:
    def test_a_retired_field_is_refused(self):
        # An older coordinator still sends ladder_cap; the worker refuses
        # the task, and the coordinator degrades the group in-process.
        data = {**config_to_json(FlowConfig()), "ladder_cap": 12}
        with pytest.raises(RemoteWireError, match="ladder_cap"):
            config_from_json(data)

    def test_a_value_the_flow_rejects_is_a_wire_error(self):
        data = {**config_to_json(FlowConfig()), "mode": "Multi"}
        with pytest.raises(RemoteWireError, match="unknown mode"):
            config_from_json(data)
