"""Wire-schema tests: submission validation and job envelopes."""

import pytest

from repro.serve import (
    JOB_STATUSES,
    SCHEMA_ID,
    STATUS_HTTP,
    JobRequest,
    WireError,
    job_envelope,
    parse_submission,
)


class TestParseSubmission:
    def test_minimal_submission(self):
        req = parse_submission({"circuit": ".i 1\n.o 1\n1 1\n.e\n"})
        assert isinstance(req, JobRequest)
        assert req.k is None and req.mode == "multi"  # k resolves from target
        assert req.target == "auto" and req.policy == "ladder-peel"
        assert req.priority == "interactive"
        assert not req.rugged and not req.strict
        assert req.budget_seconds is None and req.budget_nodes is None

    def test_all_knobs(self):
        req = parse_submission(
            {
                "circuit": "x",
                "name": "foo",
                "fmt": "pla",
                "k": 4,
                "mode": "single",
                "rugged": True,
                "strict": True,
                "budget_seconds": 1.5,
                "budget_nodes": 1000,
                "target": "lut-4",
                "policy": "race:ladder-peel,flat-ladder",
                "priority": "bulk",
            }
        )
        assert req.name == "foo" and req.fmt == "pla"
        assert req.k == 4 and req.mode == "single"
        assert req.rugged and req.strict
        assert req.budget_seconds == 1.5 and req.budget_nodes == 1000
        assert req.target == "lut-4"
        assert req.policy == "race:ladder-peel,flat-ladder"
        assert req.priority == "bulk"

    def test_target_and_policy_validate_like_the_cli(self):
        # The daemon must reject at admission what the CLI rejects at
        # argument parsing -- never enqueue a job that cannot run.
        with pytest.raises(WireError, match="unknown target"):
            parse_submission({"circuit": "x", "target": "asic"})
        with pytest.raises(WireError, match="unknown policy"):
            parse_submission({"circuit": "x", "policy": "warp-speed"})
        with pytest.raises(WireError, match="malformed race spec"):
            parse_submission({"circuit": "x", "policy": "race:"})
        with pytest.raises(WireError, match="twice"):
            parse_submission(
                {"circuit": "x", "policy": "race:ladder-peel,ladder-peel"}
            )

    def test_target_k_conflict_rejected(self):
        with pytest.raises(WireError, match="contradicts"):
            parse_submission({"circuit": "x", "target": "lut-4", "k": 5})

    def test_priority_must_name_a_lane(self):
        for lane in ("interactive", "bulk"):
            assert parse_submission(
                {"circuit": "x", "priority": lane}
            ).priority == lane
        with pytest.raises(WireError, match="priority"):
            parse_submission({"circuit": "x", "priority": "urgent"})
        with pytest.raises(WireError):
            parse_submission({"circuit": "x", "priority": 3})

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            [],
            {},
            {"circuit": ""},
            {"circuit": "   "},
            {"circuit": 5},
            {"circuit": "x", "typo_knob": 1},
            {"circuit": "x", "k": "five"},
            {"circuit": "x", "k": True},
            {"circuit": "x", "k": 1},
            {"circuit": "x", "mode": "turbo"},
            {"circuit": "x", "fmt": "verilog"},
            {"circuit": "x", "rugged": "yes"},
            {"circuit": "x", "budget_nodes": 3.5},
            {"circuit": "x", "k": 2},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(WireError):
            parse_submission(payload)

    def test_round_trips_as_dict(self):
        req = parse_submission({"circuit": "x", "k": 6})
        assert JobRequest(**req.as_dict()) == req


class TestJobEnvelope:
    def test_every_status_has_an_http_mapping(self):
        assert set(STATUS_HTTP) == set(JOB_STATUSES)
        for status in JOB_STATUSES:
            body, http = job_envelope("abc", status)
            assert body["schema"] == SCHEMA_ID
            assert body["id"] == "abc" and body["status"] == status
            assert http == STATUS_HTTP[status]

    def test_budget_maps_to_429_and_interrupt_to_503(self):
        assert job_envelope("j", "budget-exceeded")[1] == 429
        assert job_envelope("j", "interrupted")[1] == 503
        assert job_envelope("j", "failed")[1] == 500
        assert job_envelope("j", "done")[1] == 200

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            job_envelope("j", "exploded")
