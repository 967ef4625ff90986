"""End-to-end daemon tests: HTTP protocol, concurrency, drain/resume.

The server runs in-process (port 0, OS-assigned) and is exercised over
real HTTP with :mod:`urllib.request`; the reference BLIF for every
byte-identity assertion comes from a one-shot CLI run of the same
circuit, because byte-identical-to-the-CLI is the daemon's contract.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.benchcircuits.registry import get_circuit
from repro.cache.store import open_store
from repro.cli import main
from repro.io.pla import write_pla
from repro.serve import (
    JobQueue,
    QueueFull,
    ServerConfig,
    SynthesisServer,
)
from repro.serve.jobs import Job
from repro.serve.wire import JobRequest

FINAL = ("done", "failed", "budget-exceeded", "interrupted")

RD53_PLA = write_pla(get_circuit("rd53").build())
MISEX1_PLA = write_pla(get_circuit("misex1").build())


# ----------------------------------------------------------------------
# tiny HTTP client helpers
# ----------------------------------------------------------------------


def _request(base, path, payload=None):
    """One JSON exchange; returns (status, body) without raising on 4xx/5xx."""
    req = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def submit(base, payload):
    return _request(base, "/jobs", payload)


def poll_until_final(base, job_id, timeout=180.0):
    """Poll one job to a terminal status; returns (http_status, envelope)."""
    deadline = time.monotonic() + timeout
    while True:
        status, env = _request(base, f"/jobs/{job_id}")
        if env.get("status") in FINAL:
            return status, env
        assert time.monotonic() < deadline, f"job {job_id} never finished"
        time.sleep(0.2)


def cli_reference_blif(tmp_path, pla_text, name, rugged=False):
    """The one-shot CLI's BLIF bytes for the same circuit."""
    src = tmp_path / f"{name}.pla"
    out = tmp_path / f"{name}.ref.blif"
    src.write_text(pla_text)
    argv = ["synth", str(src), "-o", str(out)]
    if rugged:
        argv.append("--rugged")
    assert main(argv) == 0
    return out.read_text()


@pytest.fixture
def server():
    """A started in-process daemon; stops (drains) at teardown."""
    srv = SynthesisServer(ServerConfig(port=0, jobs=2, runners=4))
    host, port = srv.start()
    yield srv, f"http://{host}:{port}"
    srv.stop()


# ----------------------------------------------------------------------
# protocol basics
# ----------------------------------------------------------------------


class TestProtocol:
    def test_healthz_and_unknowns(self, server):
        _, base = server
        assert _request(base, "/healthz")[0] == 200
        assert _request(base, "/nope")[0] == 404
        assert _request(base, "/jobs/doesnotexist")[0] == 404

    def test_bad_submission_is_400(self, server):
        _, base = server
        status, body = submit(base, {"circuit": ""})
        assert status == 400 and "circuit" in body["error"]
        status, _ = submit(base, {"circuit": RD53_PLA, "mode": "turbo"})
        assert status == 400

    def test_unparsable_circuit_fails_job(self, server):
        _, base = server
        status, body = submit(base, {"circuit": "this is not a circuit"})
        assert status == 202
        status, env = poll_until_final(base, body["id"])
        assert env["status"] == "failed" and status == 500
        assert "format" in env["error"]

    def test_single_job_matches_cli_bytes(self, server, tmp_path):
        _, base = server
        reference = cli_reference_blif(tmp_path, RD53_PLA, "rd53")
        status, body = submit(base, {"circuit": RD53_PLA, "name": "rd53"})
        assert status == 202
        status, env = poll_until_final(base, body["id"])
        assert status == 200 and env["status"] == "done"
        assert env["blif"] == reference
        report = env["report"]
        assert report["schema"] == "repro-run-report/5"
        assert report["meta"]["verified"] is True
        assert report["engine"]["executor"] == "process"
        names = [s["name"] for s in report["spans"]]
        assert "synthesize" in names and "verify" in names

    def test_job_with_target_and_raced_policy(self, server):
        # The new wire fields thread end-to-end: a bulk-lane lut-4 job
        # with a raced policy finishes and reports its target section.
        _, base = server
        status, body = submit(
            base,
            {
                "circuit": RD53_PLA,
                "name": "rd53",
                "target": "lut-4",
                "policy": "race:ladder-peel,flat-ladder",
                "priority": "bulk",
            },
        )
        assert status == 202
        status, env = poll_until_final(base, body["id"])
        assert status == 200 and env["status"] == "done"
        section = env["report"]["target"]
        assert section["name"] == "lut-4" and section["k"] == 4
        assert sum(section["race_winners"].values()) > 0

    def test_bad_target_rejected_at_admission(self, server):
        _, base = server
        status, body = submit(base, {"circuit": RD53_PLA, "target": "asic"})
        assert status == 400 and "unknown target" in body["error"]
        status, body = submit(
            base, {"circuit": RD53_PLA, "policy": "race:nope"}
        )
        assert status == 400 and "unknown policy" in body["error"]

    def test_job_listing(self, server):
        _, base = server
        _, body = submit(base, {"circuit": RD53_PLA, "name": "rd53"})
        poll_until_final(base, body["id"])
        status, listing = _request(base, "/jobs")
        assert status == 200
        assert {"id": body["id"], "status": "done"} in listing["jobs"]


# ----------------------------------------------------------------------
# budgets and admission control
# ----------------------------------------------------------------------


class TestAdmissionAndBudgets:
    def test_blown_budget_maps_to_429(self, server):
        _, base = server
        status, body = submit(
            base,
            {"circuit": RD53_PLA, "name": "rd53", "budget_nodes": 5},
        )
        assert status == 202
        status, env = poll_until_final(base, body["id"])
        assert env["status"] == "budget-exceeded"
        assert status == 429
        assert "budget" in env["error"]
        # the partial report still arrives, failures array populated
        kinds = [f["kind"] for f in env["report"]["failures"]]
        assert "budget" in kinds

    def test_bounded_queue_rejects_overload(self):
        queue = JobQueue(backlog=1)
        queue.submit(Job(id="a", request=JobRequest(circuit="x")))
        with pytest.raises(QueueFull):
            queue.submit(Job(id="b", request=JobRequest(circuit="x")))

    def test_interactive_lane_drains_before_bulk(self):
        # Bulk jobs are enqueued first; interactive arrivals still jump
        # ahead of them (lanes are FIFO within themselves).
        queue = JobQueue(backlog=8)
        order = [
            ("b1", "bulk"), ("b2", "bulk"),
            ("i1", "interactive"), ("i2", "interactive"),
        ]
        for job_id, lane in order:
            queue.submit(
                Job(id=job_id, request=JobRequest(circuit="x", priority=lane))
            )
        drained = [queue.next_job().id for _ in range(4)]
        assert drained == ["i1", "i2", "b1", "b2"]

    def test_lanes_share_one_backlog_bound(self):
        # The bound is on total queued work, not per lane: a backlog full
        # of bulk jobs rejects interactive submissions too (the 503
        # admission-control contract is unchanged).
        queue = JobQueue(backlog=2)
        for job_id in ("b1", "b2"):
            queue.submit(
                Job(id=job_id, request=JobRequest(circuit="x", priority="bulk"))
            )
        with pytest.raises(QueueFull):
            queue.submit(
                Job(
                    id="i1",
                    request=JobRequest(circuit="x", priority="interactive"),
                )
            )

    def test_queue_full_is_503_over_http(self, tmp_path):
        # Stall the only runner with a worker-side delay fault, then
        # overfill the backlog of 1.
        srv = SynthesisServer(
            ServerConfig(
                port=0,
                jobs=2,
                runners=1,
                backlog=1,
                fault_plan="delay=20@0#all,delay=20@1#all,delay=20@2#all",
            )
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            status, first = submit(base, {"circuit": RD53_PLA})
            assert status == 202
            deadline = time.monotonic() + 30
            while _request(base, f"/jobs/{first['id']}")[1]["status"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert submit(base, {"circuit": RD53_PLA})[0] == 202  # fills queue
            status, body = submit(base, {"circuit": RD53_PLA})
            assert status == 503
            assert "queue full" in body["error"]
        finally:
            srv.stop()

    def test_draining_server_rejects_submissions(self, server):
        srv, base = server
        srv.draining = True  # the admission window of a drain in progress
        try:
            status, body = submit(base, {"circuit": RD53_PLA})
            assert status == 503 and "draining" in body["error"]
            status, body = _request(base, "/healthz")
            assert status == 503 and body["status"] == "draining"
        finally:
            srv.draining = False


# ----------------------------------------------------------------------
# concurrency: byte-identity and shared cache under parallel load
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_eight_concurrent_submissions_are_byte_identical(
        self, tmp_path
    ):
        circuits = [("rd53", RD53_PLA, False), ("misex1", MISEX1_PLA, True)]
        references = {
            (name, rugged): cli_reference_blif(tmp_path, pla, name, rugged)
            for name, pla, rugged in circuits
        }
        srv = SynthesisServer(
            ServerConfig(
                port=0,
                jobs=2,
                runners=4,
                cache_db=str(tmp_path / "cache.db"),
            )
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            ids = []
            threads = []

            def _submit(name, pla, rugged):
                status, body = submit(
                    base,
                    {"circuit": pla, "name": name, "rugged": rugged},
                )
                assert status == 202
                ids.append((name, rugged, body["id"]))

            for i in range(8):
                name, pla, rugged = circuits[i % len(circuits)]
                t = threading.Thread(target=_submit, args=(name, pla, rugged))
                t.start()
                threads.append(t)
            for t in threads:
                t.join()
            assert len(ids) == 8

            cache_hits = 0
            for name, rugged, job_id in ids:
                status, env = poll_until_final(base, job_id)
                assert env["status"] == "done", env["error"]
                assert env["blif"] == references[(name, rugged)], (
                    f"{name} (rugged={rugged}) differs from the CLI bytes"
                )
                cache_hits += env["report"]["engine"].get("cache_hits", 0)
            # 8 submissions of 2 distinct circuits through one shared
            # store: the repeats must warm from the first completions.
            assert cache_hits > 0
        finally:
            srv.stop()


# ----------------------------------------------------------------------
# graceful drain and restart-resume from the state dir's result store
# ----------------------------------------------------------------------


class TestDrainAndResume:
    def test_drain_checkpoints_and_restart_resumes_identical_bytes(
        self, tmp_path
    ):
        reference = cli_reference_blif(tmp_path, RD53_PLA, "rd53")
        state = tmp_path / "state"
        # Without --cache-db the server keeps its store in the state dir.
        db = str(state / "results.db")
        # Worker-side delays stall groups 1 and 2 (every attempt) while
        # group 0 completes and is stored -- a deterministic window to
        # drain inside.
        srv = SynthesisServer(
            ServerConfig(
                port=0,
                jobs=2,
                runners=1,
                state_dir=str(state),
                fault_plan="delay=60@1#all,delay=60@2#all",
            )
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        status, body = submit(base, {"circuit": RD53_PLA, "name": "rd53"})
        assert status == 202
        job_id = body["id"]
        deadline = time.monotonic() + 60
        while len(open_store(db)) == 0:
            assert time.monotonic() < deadline, "no group was ever stored"
            time.sleep(0.05)
        srv.stop()

        # the interrupted job is persisted as such, its group kept
        spec = json.loads(
            (state / "jobs" / f"{job_id}.json").read_text()
        )
        assert spec["status"] == "interrupted"
        assert len(open_store(db)) == 1

        # restart on the same state dir, without the fault plan
        srv2 = SynthesisServer(
            ServerConfig(port=0, jobs=2, runners=1, state_dir=str(state))
        )
        host, port = srv2.start()
        base = f"http://{host}:{port}"
        try:
            status, env = poll_until_final(base, job_id)
            assert env["status"] == "done", env["error"]
            assert env["blif"] == reference
            # at least one group replayed from the store
            assert env["report"]["engine"]["cache_hits"] >= 1
        finally:
            srv2.stop()

    def test_finished_jobs_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        srv = SynthesisServer(
            ServerConfig(port=0, jobs=2, runners=1, state_dir=str(state))
        )
        host, port = srv.start()
        base = f"http://{host}:{port}"
        _, body = submit(base, {"circuit": RD53_PLA, "name": "rd53"})
        _, env = poll_until_final(base, body["id"])
        blif = env["blif"]
        srv.stop()

        srv2 = SynthesisServer(
            ServerConfig(port=0, jobs=2, runners=1, state_dir=str(state))
        )
        host, port = srv2.start()
        try:
            status, env = _request(
                f"http://{host}:{port}", f"/jobs/{body['id']}"
            )
            assert status == 200 and env["status"] == "done"
            assert env["blif"] == blif
        finally:
            srv2.stop()
