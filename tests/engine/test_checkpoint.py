"""Replay keys and payloads: config digests, payload fingerprints and the
JSON form of a group result.

A group replays from the result cache under the key
``config_digest:target:payload_fingerprint`` with the payload
``result_to_json`` wrote (:mod:`repro.engine.worker`); a re-run that
resumes an interrupted one depends on both staying stable.
"""

import json

import pytest

from repro.bdd.transfer import PortableDag
from repro.engine.worker import (
    GroupPayload,
    GroupResult,
    NodeSpec,
    config_digest,
    payload_fingerprint,
    result_from_json,
    result_to_json,
)
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
        depth=3,
        policy="flat-ladder",
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
        assert config_digest(FlowConfig(cache_db="x.db")) == base

    def test_semantic_knobs_change_the_digest(self):
        base = config_digest(FlowConfig())
        assert config_digest(FlowConfig(k=4)) != base
        assert config_digest(FlowConfig(mode="single")) != base
        assert config_digest(FlowConfig(strict=True)) != base

    def test_digest_is_pinned_across_versions(self):
        # The digest prefixes every result cache key, so databases written
        # by earlier versions keep hitting only while these values hold.
        assert config_digest(FlowConfig()) == "6d25c5e945509b48"
        assert config_digest(FlowConfig(k=4)) == "0160a3637ff32e03"


class TestResultRoundTrip:
    def test_json_round_trip_is_lossless(self):
        result = sample_result()
        # Through real JSON text, as the store keeps it.
        blob = json.dumps(result_to_json(result))
        back = result_from_json(json.loads(blob))
        assert back.nodes == result.nodes
        assert back.outputs == result.outputs
        assert [vars(r) for r in back.records] == [
            vars(r) for r in result.records
        ]
        assert back.kind_counts == result.kind_counts
        assert back.depth == 3
        assert back.policy == "flat-ladder"

    def test_a_payload_without_depth_still_decodes(self):
        # Entries stored before results carried their recursion depth
        # must keep hitting; they report depth 0.
        payload = result_to_json(sample_result())
        del payload["depth"]
        back = result_from_json(payload)
        assert back.depth == 0
        assert back.nodes == sample_result().nodes

    def test_a_payload_without_policy_reads_none(self):
        # Entries stored before results named a race's winner replay
        # as unraced groups.
        payload = result_to_json(sample_result())
        del payload["policy"]
        assert result_from_json(payload).policy is None

    @pytest.mark.parametrize("policy", [1, ["flat-ladder"], {"a": 1}, True])
    def test_a_non_string_policy_is_malformed(self, policy):
        payload = result_to_json(sample_result())
        payload["policy"] = policy
        with pytest.raises(ValueError, match="policy"):
            result_from_json(payload)

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
        # Config compatibility is the key's digest prefix's job.
        a = payload_fingerprint(sample_payload(FlowConfig()))
        b = payload_fingerprint(sample_payload(FlowConfig(k=4)))
        assert a == b
