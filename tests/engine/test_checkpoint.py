"""Checkpoint files: digests, round-trips, atomic writes, resume lookup."""

import json
import os

import pytest

from repro.bdd.transfer import PortableDag
from repro.engine.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointEntry,
    Checkpointer,
    ResumeState,
    config_digest,
    load_checkpoint,
    payload_fingerprint,
    result_from_json,
    result_to_json,
)
from repro.engine.worker import GroupPayload, GroupResult, NodeSpec
from repro.errors import CheckpointError
from repro.mapping.flow import FlowConfig, GroupRecord


def sample_result() -> GroupResult:
    return GroupResult(
        nodes=(
            NodeSpec("L0", ("a", "b"), 2, ((0b11, 0b01), (0b10, 0b00))),
            NodeSpec("const1", (), 0, (), constant=True),
        ),
        outputs=("L0", "const1"),
        records=(GroupRecord(2, 3, 4, 5),),
        kind_counts={"decompose-vector": 1, "emit-lut": 2},
    )


def sample_payload(config: FlowConfig) -> GroupPayload:
    return GroupPayload(
        dag=PortableDag(
            var_names=("a", "b"),
            nodes=((0, 1, -1),),
            roots=(2,),
        ),
        level_signals={0: "a", 1: "b"},
        config=config,
    )


class TestConfigDigest:
    def test_non_semantic_knobs_do_not_change_the_digest(self):
        base = config_digest(FlowConfig())
        assert config_digest(FlowConfig(jobs=8, executor="process")) == base
        assert config_digest(FlowConfig(task_retries=9)) == base
        assert config_digest(FlowConfig(checkpoint_path="x.json")) == base
        assert config_digest(FlowConfig(resume_from="x.json")) == base

    def test_semantic_knobs_change_the_digest(self):
        base = config_digest(FlowConfig())
        assert config_digest(FlowConfig(k=4)) != base
        assert config_digest(FlowConfig(mode="single")) != base
        assert config_digest(FlowConfig(strict=True)) != base

    def test_digest_is_pinned_across_versions(self):
        # The digest keys every checkpoint file and prefixes every result
        # cache key, so files written by earlier versions stay valid only
        # while these values hold.
        assert config_digest(FlowConfig()) == "6d25c5e945509b48"
        assert config_digest(FlowConfig(k=4)) == "0160a3637ff32e03"


class TestResultRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = sample_result()
        # Through real JSON text, as the file format would.
        blob = json.dumps(result_to_json(result))
        back = result_from_json(json.loads(blob))
        assert back.nodes == result.nodes
        assert back.outputs == result.outputs
        assert [vars(r) for r in back.records] == [
            vars(r) for r in result.records
        ]
        assert back.kind_counts == result.kind_counts

    def test_fingerprint_tracks_the_functions(self):
        config = FlowConfig()
        a = payload_fingerprint(sample_payload(config))
        changed = GroupPayload(
            dag=PortableDag(
                var_names=("a", "b"),
                nodes=((0, 1, -2),),
                roots=(2,),
            ),
            level_signals={0: "a", 1: "b"},
            config=config,
        )
        assert payload_fingerprint(changed) != a

    def test_fingerprint_ignores_the_config(self):
        # Config compatibility is the file-level digest's job.
        a = payload_fingerprint(sample_payload(FlowConfig()))
        b = payload_fingerprint(sample_payload(FlowConfig(k=4)))
        assert a == b


class TestCheckpointerAndLoad:
    def test_write_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "ck.json")
        config = FlowConfig(executor="process", jobs=2)
        ck = Checkpointer(path, config_digest(config), every=1)
        ck.record(0, "fp0", sample_result())
        ck.close()
        state = load_checkpoint(path, config)
        assert len(state) == 1
        assert state.lookup(0, "fp0").outputs == ("L0", "const1")

    def test_flush_period_batches_writes(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpointer(str(path), "digest", every=3)
        ck.record(0, "fp0", sample_result())
        ck.record(1, "fp1", sample_result())
        assert not path.exists()  # below the period: nothing on disk yet
        ck.record(2, "fp2", sample_result())
        assert path.exists()
        ck.close()
        payload = json.loads(path.read_text())
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert [g["ordinal"] for g in payload["groups"]] == [0, 1, 2]

    def test_stale_fingerprint_is_skipped(self, tmp_path):
        path = str(tmp_path / "ck.json")
        config = FlowConfig()
        ck = Checkpointer(path, config_digest(config), every=1)
        ck.record(0, "fp0", sample_result())
        ck.close()
        state = load_checkpoint(path, config)
        assert state.lookup(0, "DIFFERENT") is None
        assert state.lookup(7, "fp0") is None

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.json"), FlowConfig())

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema": "something/9", "groups": []}))
        with pytest.raises(CheckpointError, match="expected schema"):
            load_checkpoint(str(path), FlowConfig())

    def test_config_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = Checkpointer(path, config_digest(FlowConfig(k=5)), every=1)
        ck.record(0, "fp0", sample_result())
        ck.close()
        with pytest.raises(CheckpointError, match="different flow"):
            load_checkpoint(path, FlowConfig(k=4))

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        config = FlowConfig()
        path.write_text(json.dumps({
            "schema": CHECKPOINT_SCHEMA,
            "config_digest": config_digest(config),
            "groups": [{"ordinal": 0}],
        }))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(str(path), config)

    def test_no_leftover_temp_file(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = Checkpointer(str(path), "digest", every=1)
        ck.record(0, "fp0", sample_result())
        ck.close()
        assert list(tmp_path.iterdir()) == [path]


def write_valid_checkpoint(tmp_path):
    config = FlowConfig()
    path = tmp_path / "ck.json"
    ck = Checkpointer(str(path), config_digest(config), every=1)
    ck.record(0, "fp0", sample_result())
    ck.close()
    return path, config


class TestTruncatedCheckpoints:
    def test_any_truncation_raises_checkpoint_error(self, tmp_path):
        # A crash mid-write (or a copy of a half-written file) must turn
        # into the one-line CheckpointError the CLI maps to exit 2 --
        # never a raw JSONDecodeError traceback.
        path, config = write_valid_checkpoint(tmp_path)
        blob = path.read_bytes()
        assert len(blob) > 8
        for cut in (0, 1, len(blob) // 3, len(blob) // 2, len(blob) - 1):
            trunc = tmp_path / f"trunc{cut}.json"
            trunc.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="cannot read"):
                load_checkpoint(str(trunc), config)

    def test_truncation_mid_multibyte_sequence_raises(self, tmp_path):
        # Cutting inside a UTF-8 sequence fails *decoding* before the
        # JSON parser even runs (UnicodeDecodeError, a ValueError
        # subclass) -- it must be wrapped exactly like any other
        # truncation.
        blob = json.dumps(
            {"schema": CHECKPOINT_SCHEMA, "note": "café"},
            ensure_ascii=False,
        ).encode("utf-8")
        cut = blob.index(b"\xc3") + 1
        path = tmp_path / "ck.json"
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(path), FlowConfig())


class TestFlushDurability:
    def test_temp_name_is_per_process(self, tmp_path, monkeypatch):
        # Two runs checkpointing to the same path must not clobber each
        # other's partial writes; the temp name carries the writer's pid.
        seen = {}
        real_replace = os.replace

        def spy(src, dst):
            seen["src"] = src
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        path = str(tmp_path / "ck.json")
        ck = Checkpointer(path, "digest", every=1)
        ck.record(0, "fp0", sample_result())
        assert seen["src"] == f"{path}.tmp.{os.getpid()}"

    def test_data_is_fsynced_before_the_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda s, d: (events.append("replace"), real_replace(s, d))[1],
        )
        ck = Checkpointer(str(tmp_path / "ck.json"), "digest", every=1)
        ck.record(0, "fp0", sample_result())
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_failed_flush_cleans_up_and_reraises(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        ck = Checkpointer(str(tmp_path / "ck.json"), "digest", every=1)
        with pytest.raises(OSError, match="disk full"):
            ck.record(0, "fp0", sample_result())
        assert list(tmp_path.iterdir()) == []  # no temp file left behind


class TestResumeStaleCounting:
    def test_lookup_counts_fingerprint_mismatches_only(self):
        state = ResumeState(
            "digest", {0: CheckpointEntry(0, "fp0", sample_result())}
        )
        assert state.stale == 0
        assert state.lookup(0, "CHANGED") is None
        assert state.stale == 1
        assert state.lookup(7, "fp0") is None  # absent ordinal: not stale
        assert state.stale == 1
        assert state.lookup(0, "fp0") is not None  # a match: not stale
        assert state.stale == 1
