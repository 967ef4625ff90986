"""Policy-portfolio racing: determinism, winner selection, accounting.

The contract under test (see ``docs/TARGETS.md``): a ``race:p1,p2,...``
policy spec fans each output group out to every candidate policy, the
cheapest mapped group under the technology target wins (ties break by
spec order), and the whole flow stays **deterministic** -- the same
winner and byte-identical BLIF on every run, under either executor.
"""

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.engine.policies import POLICIES, parse_policy_spec
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.targets import make_target
from tests.mapping.test_flow import ones_count_network

RACE = "race:" + ",".join(sorted(POLICIES))


def misex1():
    net = get_circuit("misex1").build()
    rugged(net)
    return net


class TestParsePolicySpec:
    def test_plain_name_is_a_one_element_portfolio(self):
        assert parse_policy_spec("ladder-peel") == ["ladder-peel"]

    def test_race_spec_splits_in_spec_order(self):
        spec = "race:ladder-peel, flat-ladder"
        assert parse_policy_spec(spec) == ["ladder-peel", "flat-ladder"]

    @pytest.mark.parametrize("spec", ["race:", "race:a,", "race:,b", "race: ,"])
    def test_empty_entries_rejected(self, spec):
        with pytest.raises(ValueError, match="malformed race spec"):
            parse_policy_spec(spec)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            parse_policy_spec("race:ladder-peel,ladder-peel")


class TestConfigGuards:
    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            FlowConfig(policy="race:ladder-peel,warp-speed")

    def test_race_conflicts_with_fault_injection(self):
        from repro.engine.faults import parse_fault_plan

        with pytest.raises(ValueError, match="fault"):
            FlowConfig(policy=RACE, fault_plan=parse_fault_plan("kill@0"))


class TestRaceDeterminism:
    def test_repeated_runs_emit_identical_bytes_and_winners(self):
        net = ones_count_network(6, 3)
        config = FlowConfig(policy=RACE)
        first = synthesize(net, config)
        second = synthesize(net, config)
        assert write_blif(first.network) == write_blif(second.network)
        assert first.race_winners == second.race_winners
        assert verify_flow(net, first)

    def test_serial_and_process_executors_agree(self):
        net = ones_count_network(6, 3)
        serial = synthesize(net, FlowConfig(policy=RACE))
        process = synthesize(
            net, FlowConfig(policy=RACE, executor="process", jobs=2)
        )
        assert write_blif(serial.network) == write_blif(process.network)
        assert serial.race_winners == process.race_winners

    def test_rugged_misex1_race_is_deterministic(self):
        serial = synthesize(misex1(), FlowConfig(policy=RACE))
        process = synthesize(
            misex1(), FlowConfig(policy=RACE, executor="process", jobs=2)
        )
        assert write_blif(serial.network) == write_blif(process.network)
        assert serial.race_winners == process.race_winners
        assert sum(serial.race_winners.values()) > 0


class TestWinnerSelection:
    def test_race_result_is_never_worse_than_any_single_policy(self):
        # The race picks per group, so its priced network must cost at
        # most what the best whole-run single policy costs -- and on this
        # suite it lands exactly on the best single-policy cost.
        net = misex1()
        config = FlowConfig(policy=RACE)
        target = make_target(config.target)
        raced = target.network_cost(
            synthesize(net, config).network
        )
        singles = {
            name: target.network_cost(
                synthesize(misex1(), FlowConfig(policy=name)).network
            )
            for name in POLICIES
        }
        best = min(cost.units for cost in singles.values())
        assert raced.units == best

    def test_winners_name_real_candidates(self):
        result = synthesize(ones_count_network(6, 3), FlowConfig(policy=RACE))
        assert result.race_winners
        assert set(result.race_winners) <= set(POLICIES)
        assert all(wins > 0 for wins in result.race_winners.values())


class TestRaceAccounting:
    def test_counters_track_groups_and_candidates(self):
        result = synthesize(ones_count_network(6, 3), FlowConfig(policy=RACE))
        stats = result.engine_stats
        assert stats.race_groups > 0
        assert stats.race_candidates == stats.race_groups * len(POLICIES)
        assert stats.race_failures == 0
        assert sum(result.race_winners.values()) == stats.race_groups

    def test_process_executor_cancels_losers(self):
        result = synthesize(
            ones_count_network(6, 3),
            FlowConfig(policy=RACE, executor="process", jobs=2),
        )
        stats = result.engine_stats
        assert stats.race_groups > 0
        # Losers are cancelled after the winner is picked; the serial
        # executor runs candidates to completion in-line instead.
        assert stats.race_losers_cancelled >= 0

    def test_single_policy_runs_do_not_race(self):
        result = synthesize(ones_count_network(6, 3), FlowConfig())
        stats = result.engine_stats
        assert stats.race_groups == 0
        assert stats.race_candidates == 0
        assert result.race_winners == {}
