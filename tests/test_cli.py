"""Unit tests for the command-line driver."""

import contextlib
import json
import sqlite3

import pytest

from repro.cli import load_network, main
from repro.io.blif import parse_blif
from repro.observe import validate_report

PLA = """\
.i 6
.o 2
.p 4
11---- 10
--11-- 11
----11 01
111--- 10
.e
"""

BLIF = """\
.model tiny
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
"""


@pytest.fixture
def pla_file(tmp_path):
    path = tmp_path / "design.pla"
    path.write_text(PLA)
    return path


@pytest.fixture
def blif_file(tmp_path):
    path = tmp_path / "tiny.blif"
    path.write_text(BLIF)
    return path


class TestInfo:
    def test_info_pla(self, pla_file, capsys):
        assert main(["info", str(pla_file)]) == 0
        out = capsys.readouterr().out
        assert "inputs=6" in out and "outputs=2" in out

    def test_info_blif(self, blif_file, capsys):
        assert main(["info", str(blif_file)]) == 0
        assert "tiny" in capsys.readouterr().out


class TestSynth:
    def test_synth_multi_with_output(self, pla_file, tmp_path, capsys):
        out_path = tmp_path / "mapped.blif"
        rc = main(["synth", str(pla_file), "--mode", "multi", "-o", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "CLBs" in out
        mapped = parse_blif(out_path.read_text())
        assert mapped.outputs  # netlist written and parseable

    def test_synth_single_mode(self, pla_file, capsys):
        assert main(["synth", str(pla_file), "--mode", "single"]) == 0
        assert "mode = single" in capsys.readouterr().out

    def test_synth_k4_packs_xc4000(self, pla_file, capsys):
        # --k 4 resolves to the lut-4 target, priced in XC4000 CLBs.
        assert main(["synth", str(pla_file), "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "k = 4" in out
        assert "XC4000 CLBs" in out
        assert "XC3000" not in out

    def test_synth_k6_prints_no_packing(self, pla_file, capsys):
        # lut-6 has no CLB packer; only the LUT count is reported.
        assert main(["synth", str(pla_file), "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "k = 6" in out
        assert "CLBs" not in out

    def test_synth_rugged_structural(self, blif_file, capsys):
        rc = main(["synth", str(blif_file), "--rugged", "--structural", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rugged:" in out
        assert "verified" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestStrictFlag:
    def test_synth_strict(self, pla_file, capsys):
        assert main(["synth", str(pla_file), "--strict"]) == 0
        assert "verified" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/file.pla"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert len(err.strip().splitlines()) == 1  # one-line error, no traceback

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i 2\n.o 1\n.unknown\n11 1\n.e\n")
        assert main(["info", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unrecognizable_format_exits_2(self, tmp_path, capsys):
        mystery = tmp_path / "mystery.txt"
        mystery.write_text("hello world\n")
        assert main(["info", str(mystery)]) == 2
        err = capsys.readouterr().err
        assert "cannot determine input format" in err
        assert len(err.strip().splitlines()) == 1


class TestFormatDispatch:
    def test_blif_suffix_beats_content_sniffing(self, tmp_path):
        # Regression: a .blif file whose first directive is .inputs used to
        # be mis-sniffed as PLA (both formats start with ".i").
        path = tmp_path / "noheader.blif"
        path.write_text(
            ".inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
        )
        net = load_network(path)
        assert set(net.inputs) == {"a", "b"}
        assert net.outputs == ["y"]

    def test_unknown_suffix_sniffs_pla(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_text(PLA)
        net = load_network(path)
        assert len(net.inputs) == 6

    def test_unknown_suffix_sniffs_blif(self, tmp_path):
        path = tmp_path / "design.in"
        path.write_text(BLIF)
        net = load_network(path)
        assert net.name == "tiny"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="cannot determine input format"):
            load_network(path)


class TestObservability:
    def test_report_is_schema_valid(self, pla_file, rd53_file, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        for argv in ([str(pla_file)], [str(rd53_file), "--k", "4", "--trace"]):
            rc = main(["synth", *argv, "--report", str(report_path)])
            assert rc == 0
            payload = validate_report(json.loads(report_path.read_text()))
            assert payload["meta"]["verified"] is True
            assert payload["meta"]["luts"] >= 1
            top = {s["name"] for s in payload["spans"]}
            assert top == {"synthesize", "verify"}
            assert 0 < payload["total_seconds"] <= payload["meta"]["wall_clock_seconds"] * 1.5

    def test_trace_prints_span_tree(self, pla_file, capsys):
        assert main(["synth", str(pla_file), "--trace"]) == 0
        err = capsys.readouterr().err
        assert "synthesize:" in err and "collapse:" in err

    def test_tracing_does_not_change_the_mapping(self, pla_file, tmp_path, capsys):
        plain_out = tmp_path / "plain.blif"
        traced_out = tmp_path / "traced.blif"
        assert main(["synth", str(pla_file), "-o", str(plain_out)]) == 0
        assert main(["synth", str(pla_file), "--trace", "-o", str(traced_out)]) == 0
        assert plain_out.read_text() == traced_out.read_text()

    def test_node_budget_exceeded_exits_3(self, pla_file, tmp_path, capsys):
        report_path = tmp_path / "budget.json"
        rc = main(["synth", str(pla_file), "--budget-nodes", "5",
                   "--report", str(report_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "nodes budget" in err
        # Regression (ISSUE 8 satellite 2): an error exit used to unwind
        # past the report block, silently dropping the requested
        # --report.  A partial report must land on *every* exit.
        payload = validate_report(json.loads(report_path.read_text()))
        assert payload["meta"]["verified"] is False
        assert "budget" in payload["meta"]["error"]
        assert "budget" in [f["kind"] for f in payload["failures"]]
        assert "luts" not in payload["meta"]  # nothing was mapped

    def test_generous_budget_passes(self, pla_file, capsys):
        rc = main(["synth", str(pla_file), "--budget-seconds", "3600",
                   "--budget-nodes", "10000000"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--budget-seconds", "-1"), ("--budget-seconds", "nan"),
         ("--budget-seconds", "inf"), ("--budget-nodes", "-5")],
    )
    def test_out_of_range_budget_exits_2(self, pla_file, capsys, flag, value):
        assert main(["synth", str(pla_file), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: budget") and len(err.splitlines()) == 1


class TestExecutorFlag:
    def test_serial_and_process_agree(self, pla_file, tmp_path, capsys):
        serial_out = tmp_path / "serial.blif"
        process_out = tmp_path / "process.blif"
        assert main(["synth", str(pla_file), "-o", str(serial_out)]) == 0
        assert main(["synth", str(pla_file), "--executor", "process",
                     "--jobs", "2", "-o", str(process_out)]) == 0
        assert serial_out.read_text() == process_out.read_text()
        assert "executor = process" in capsys.readouterr().out

    def test_report_carries_engine_section(self, pla_file, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        assert main(["synth", str(pla_file), "--report", str(report_path)]) == 0
        payload = validate_report(json.loads(report_path.read_text()))
        assert payload["schema"] == "repro-run-report/5"
        engine = payload["engine"]
        assert engine["executor"] == "serial"
        assert engine["tasks_total"] > 0

    def test_rejects_unknown_executor(self, pla_file):
        with pytest.raises(SystemExit):
            main(["synth", str(pla_file), "--executor", "quantum"])

    def test_broker_without_remote_executor_exits_2(self, pla_file, capsys):
        rc = main(["synth", str(pla_file), "--broker", "127.0.0.1:1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "remote" in err
        assert "Traceback" not in err

    def test_remote_executor_without_broker_exits_2(self, pla_file, capsys):
        rc = main(["synth", str(pla_file), "--executor", "remote"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--broker" in err
        assert "Traceback" not in err


class TestBatch:
    def test_batch_maps_and_verifies_all(self, pla_file, blif_file, tmp_path, capsys):
        out_dir = tmp_path / "mapped"
        rc = main(["batch", str(pla_file), str(blif_file),
                   "-o", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 circuits" in out
        assert out.count("verified") >= 2
        written = sorted(p.name for p in out_dir.glob("*.blif"))
        assert len(written) == 2

    def test_batch_process_matches_per_circuit_synth(self, pla_file, tmp_path, capsys):
        solo_out = tmp_path / "solo.blif"
        assert main(["synth", str(pla_file), "-o", str(solo_out)]) == 0
        out_dir = tmp_path / "batch"
        rc = main(["batch", str(pla_file), "--executor", "process",
                   "--jobs", "2", "-o", str(out_dir)])
        assert rc == 0
        (batch_blif,) = out_dir.glob("*.blif")
        assert batch_blif.read_text() == solo_out.read_text()

    def test_batch_report_merges_engine_stats(self, pla_file, blif_file, tmp_path):
        report_path = tmp_path / "batch.json"
        for executor in ([], ["--executor", "process", "--jobs", "2"]):
            rc = main(["batch", str(pla_file), str(blif_file), *executor,
                       "--report", str(report_path)])
            assert rc == 0
            payload = validate_report(json.loads(report_path.read_text()))
            assert payload["engine"]["tasks_total"] > 0
            assert payload["meta"]["verified"] is True


@pytest.fixture
def rd53_file(tmp_path):
    """rd53 as a BLIF file: 3 output groups under k=5, so the process
    executor actually pools (and faults actually fire)."""
    from repro.benchcircuits.registry import get_circuit
    from repro.io.blif import write_blif

    path = tmp_path / "rd53.blif"
    path.write_text(write_blif(get_circuit("rd53").build()))
    return path


def stored_groups(db) -> int:
    """Groups in the result store at ``db`` (0 until it holds any).

    Reads through a connection of its own, so it also sees what another
    process committed.
    """
    if not db.exists():
        return 0
    try:
        with contextlib.closing(sqlite3.connect(db)) as conn:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    except sqlite3.Error:  # the schema is not created yet
        return 0


class TestReliabilityCli:
    def test_injected_faults_leave_the_blif_byte_identical(
        self, rd53_file, tmp_path, capsys
    ):
        serial = tmp_path / "serial.blif"
        faulty = tmp_path / "faulty.blif"
        assert main(["synth", str(rd53_file), "-o", str(serial)]) == 0
        rc = main(["synth", str(rd53_file), "--executor", "process",
                   "--jobs", "2",
                   "--inject-faults", "kill@0,drop@1,delay=0.1@2",
                   "--report", str(tmp_path / "r.json"),
                   "-o", str(faulty)])
        assert rc == 0
        assert faulty.read_text() == serial.read_text()
        payload = validate_report(
            json.loads((tmp_path / "r.json").read_text())
        )
        assert payload["engine"]["faults_injected"] >= 3
        assert payload["failures"]  # structured per-attempt records

    def test_abort_checkpoint_resume_round_trip(
        self, rd53_file, tmp_path, capsys
    ):
        # Resume is a re-run with the same --cache-db: the groups merged
        # before the abort replay, the rest are mapped.
        serial = tmp_path / "serial.blif"
        assert main(["synth", str(rd53_file), "-o", str(serial)]) == 0

        db = tmp_path / "run.db"
        rc = main(["synth", str(rd53_file), "--executor", "process",
                   "--jobs", "2", "--cache-db", str(db),
                   "--inject-faults", "abort@1"])
        assert rc == 1  # the simulated coordinator death
        assert stored_groups(db) == 2

        resumed = tmp_path / "resumed.blif"
        report = tmp_path / "resumed.json"
        rc = main(["synth", str(rd53_file), "--executor", "process",
                   "--jobs", "2", "--cache-db", str(db),
                   "--report", str(report), "-o", str(resumed)])
        assert rc == 0
        assert resumed.read_text() == serial.read_text()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_hits"] == 2

    def test_serial_abort_checkpoint_resume_round_trip(
        self, rd53_file, tmp_path, capsys
    ):
        # The serial executor stores group by group and takes fault plans
        # like the process executor does.
        plain = tmp_path / "plain.blif"
        assert main(["synth", str(rd53_file), "-o", str(plain)]) == 0
        db = tmp_path / "run.db"
        rc = main(["synth", str(rd53_file), "--cache-db", str(db),
                   "--inject-faults", "abort@1"])
        assert rc == 1
        resumed = tmp_path / "resumed.blif"
        rc = main(["synth", str(rd53_file), "--cache-db", str(db),
                   "-o", str(resumed)])
        assert rc == 0
        assert resumed.read_text() == plain.read_text()

    def test_rerun_under_other_knobs_replays_nothing(
        self, rd53_file, tmp_path, capsys
    ):
        # Groups are stored under the semantic config digest, so a re-run
        # with other knobs maps every group afresh, to its own bytes.
        db = tmp_path / "run.db"
        plain = tmp_path / "plain.blif"
        rerun = tmp_path / "rerun.blif"
        report = tmp_path / "rerun.json"
        assert main(["synth", str(rd53_file), "--k", "4",
                     "-o", str(plain)]) == 0
        assert main(["synth", str(rd53_file), "--executor", "process",
                     "--jobs", "2", "--cache-db", str(db)]) == 0
        assert main(["synth", str(rd53_file), "--executor", "process",
                     "--jobs", "2", "--cache-db", str(db), "--k", "4",
                     "--report", str(report), "-o", str(rerun)]) == 0
        assert rerun.read_text() == plain.read_text()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_hits"] == 0
        assert engine["cache_misses"] == engine["cache_stores"] > 0

    def test_batch_isolates_a_crashing_circuit(
        self, rd53_file, pla_file, tmp_path, capsys
    ):
        # A permanent fault (#all fires on the degraded attempt too) on
        # ordinal 0 kills only rd53; the second circuit still maps.
        out_dir = tmp_path / "mapped"
        rc = main(["batch", str(rd53_file), str(pla_file),
                   "--executor", "process", "--jobs", "2",
                   "--task-retries", "1",
                   "--inject-faults", "drop@0#all",
                   "-o", str(out_dir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "rd53: FAILED" in out
        assert "design: " in out and "verified" in out
        written = [p.name for p in out_dir.glob("*.blif")]
        assert written == ["design.blif"]


class TestInterruptCli:
    """SIGINT/SIGTERM drain: exit 130, no orphans, a resumable store.

    A signal must not tear the CLI down with a KeyboardInterrupt
    traceback or leave pool workers orphaned, and every group merged
    before it must already be committed to the ``--cache-db`` store.  The
    drain contract is exercised in a real subprocess because signal
    disposition is per-process state.
    """

    @staticmethod
    def _spawn_stalled_run(rd53_file, tmp_path):
        """Start a CLI run whose groups 1 and 2 sleep forever in workers."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        db = tmp_path / "run.db"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "synth", str(rd53_file),
             "--executor", "process", "--jobs", "2",
             "--cache-db", str(db),
             "--inject-faults", "delay=120@1#all,delay=120@2#all",
             "-o", str(tmp_path / "never.blif")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        return proc, db

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_exits_130_flushes_checkpoint_and_resumes(
        self, rd53_file, tmp_path, signame
    ):
        import signal as signal_mod
        import time

        serial = tmp_path / "serial.blif"
        assert main(["synth", str(rd53_file), "-o", str(serial)]) == 0

        proc, db = self._spawn_stalled_run(rd53_file, tmp_path)
        try:
            deadline = time.monotonic() + 120
            while stored_groups(db) == 0:
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "no group was ever stored"
                time.sleep(0.05)
            proc.send_signal(getattr(signal_mod, signame))
            # Prompt drain: nowhere near the 120s the faulted groups sleep.
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "interrupt" in err
        assert "Traceback" not in err
        assert stored_groups(db) == 1, "the merged group must be stored"

        # A re-run with the same store reproduces the uninterrupted
        # bytes exactly, replaying the stored group.
        resumed = tmp_path / "resumed.blif"
        report = tmp_path / "resumed.json"
        rc = main(["synth", str(rd53_file), "--executor", "process",
                   "--jobs", "2", "--cache-db", str(db),
                   "--report", str(report), "-o", str(resumed)])
        assert rc == 0
        assert resumed.read_text() == serial.read_text()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_hits"] == 1


PAIR_BLIF = """\
.model pair
.inputs a b c
.outputs y z
.names a b c y
111 1
.names a b z
11 1
.end
"""

# The same structure with output y complemented: the z group's payload
# fingerprint still matches, the y group's does not.
PAIR_BLIF_Y_FLIPPED = """\
.model pair
.inputs a b c
.outputs y z
.names a b c y
0-- 1
-0- 1
--0 1
.names a b z
11 1
.end
"""


class TestResultCacheCli:
    def test_cold_then_warm_is_byte_identical_with_full_hits(
        self, rd53_file, tmp_path
    ):
        db = tmp_path / "cache.db"
        plain, cold, warm = (tmp_path / n for n in ("p.blif", "c.blif", "w.blif"))
        report = tmp_path / "warm.json"
        assert main(["synth", str(rd53_file), "-o", str(plain)]) == 0
        assert main(["synth", str(rd53_file), "--cache-db", str(db),
                     "-o", str(cold)]) == 0
        assert main(["synth", str(rd53_file), "--cache-db", str(db),
                     "-o", str(warm), "--report", str(report)]) == 0
        assert cold.read_bytes() == plain.read_bytes()
        assert warm.read_bytes() == plain.read_bytes()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_hits"] > 0
        assert engine["cache_misses"] == 0
        assert engine["cache_rejects"] == 0

    def test_warm_process_run_matches_serial_cold_run(
        self, rd53_file, tmp_path
    ):
        db = tmp_path / "cache.db"
        cold, warm = tmp_path / "c.blif", tmp_path / "w.blif"
        report = tmp_path / "warm.json"
        assert main(["synth", str(rd53_file), "--cache-db", str(db),
                     "-o", str(cold)]) == 0
        assert main(["synth", str(rd53_file), "--cache-db", str(db),
                     "--executor", "process", "--jobs", "2",
                     "-o", str(warm), "--report", str(report)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_misses"] == 0

    def test_corrupt_cache_db_degrades_to_recompute_exit_0(
        self, rd53_file, tmp_path, capsys
    ):
        db = tmp_path / "cache.db"
        db.write_bytes(b"\x00definitely not sqlite\xff" * 64)
        plain, out = tmp_path / "p.blif", tmp_path / "o.blif"
        assert main(["synth", str(rd53_file), "-o", str(plain)]) == 0
        rc = main(["synth", str(rd53_file), "--cache-db", str(db),
                   "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == plain.read_bytes()
        err = capsys.readouterr().err
        assert "disabled" in err and "continuing without cache" in err


    def test_changed_network_replays_only_its_unchanged_groups(
        self, tmp_path
    ):
        before = tmp_path / "before.blif"
        after = tmp_path / "after.blif"
        before.write_text(PAIR_BLIF)
        after.write_text(PAIR_BLIF_Y_FLIPPED)
        db = tmp_path / "run.db"
        plain, rerun = tmp_path / "plain.blif", tmp_path / "rerun.blif"
        report = tmp_path / "rerun.json"
        assert main(["synth", str(after), "--mode", "single",
                     "-o", str(plain)]) == 0
        assert main(["synth", str(before), "--mode", "single",
                     "--executor", "process", "--jobs", "2",
                     "--cache-db", str(db)]) == 0
        assert main(["synth", str(after), "--mode", "single",
                     "--executor", "process", "--jobs", "2",
                     "--cache-db", str(db), "--report", str(report),
                     "-o", str(rerun)]) == 0
        assert rerun.read_bytes() == plain.read_bytes()
        engine = validate_report(json.loads(report.read_text()))["engine"]
        assert engine["cache_hits"] == 1  # z
        assert engine["cache_misses"] == 1  # the complemented y


class TestTargetsCli:
    @pytest.mark.parametrize("k,name", [
        (4, "lut-4"), (5, "xc3000-clb"), (6, "lut-6"),
    ])
    def test_lut_k_sweep_verifies_and_reports_its_target(
        self, rd53_file, tmp_path, capsys, k, name
    ):
        report_path = tmp_path / f"lut{k}.json"
        assert main(["synth", str(rd53_file), "--k", str(k),
                     "--report", str(report_path)]) == 0
        payload = validate_report(json.loads(report_path.read_text()))
        assert payload["meta"]["verified"] is True
        assert payload["target"]["name"] == name
        assert payload["target"]["k"] == k

    @pytest.mark.parametrize("flags", [
        ["--target", "asic"], ["--policy", "race:ladder-peel,warp"],
    ], ids=["unknown-target", "unknown-race-candidate"])
    def test_unknown_name_exits_2_with_one_line(self, rd53_file, capsys, flags):
        assert main(["synth", str(rd53_file), *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err


class TestServeStartup:
    def test_bad_fault_plan_exits_2_before_binding(self, monkeypatch, capsys):
        from repro.httpjson import JsonService

        def bind(service):
            raise AssertionError("repro serve bound its port")

        monkeypatch.setattr(JsonService, "start", bind)
        argv = ["serve", "--port", "0", "--inject-faults", "bogus"]
        assert main(argv) == 2
        assert "missing '@<group>'" in capsys.readouterr().err


class TestDaemonSignals:
    """Both daemons drain on a real SIGINT/SIGTERM and exit 0.

    The shared ``serve_forever`` installs the handlers, so this runs the
    real CLI in a subprocess: signal disposition is per-process state.
    """

    DAEMONS = {
        "serve": ["serve", "--port", "0", "--jobs", "1", "--runners", "1"],
        "broker": ["broker", "--port", "0"],
    }

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    @pytest.mark.parametrize("daemon", ["serve", "broker"])
    def test_signal_drains_and_exits_0(self, tmp_path, daemon, signame):
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.DAEMONS[daemon]],
            env=env, cwd=tmp_path, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            first = proc.stdout.readline()
            match = re.search(r"listening on (http://\S+:\d+)", first)
            assert match, (first, proc.stderr.read() if proc.poll() else "")
            url = match.group(1) + "/healthz"
            with urllib.request.urlopen(url, timeout=10) as resp:
                assert resp.status == 200
            proc.send_signal(getattr(signal, signame))
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert out.strip().splitlines()[-1] == f"repro {daemon}: drained"
