"""Policy-portfolio racing: determinism, winner selection, accounting,
recovery.

The contract under test (see ``docs/TARGETS.md``): a ``race:p1,p2,...``
policy spec maps each output group with every candidate policy inside the
group's one task, the cheapest mapped group under the technology target
wins (ties break by spec order), and the whole flow stays
**deterministic** -- the same winner and byte-identical BLIF on every
run, under either executor, and through retries, degradation and
result-cache replay.
"""

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.engine.faults import parse_fault_plan
from repro.engine.policies import POLICIES, parse_policy_spec
from repro.io.blif import write_blif
from repro.mapping.flow import (
    FlowConfig,
    prepare_synthesis,
    synthesize,
    verify_flow,
)
from repro.mapping.structural import synthesize_structural
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


def group_count(net, config: FlowConfig) -> int:
    return len(prepare_synthesis(net, config).groups)


class TestRaceAccounting:
    def test_counters_track_groups_and_candidates(self):
        # Every raced group counts exactly one winner, and only
        # candidates of the spec win.
        net = ones_count_network(6, 3)
        result = synthesize(net, FlowConfig(policy=RACE))
        assert set(result.race_winners) <= set(POLICIES)
        assert sum(result.race_winners.values()) == group_count(
            net, FlowConfig(policy=RACE)
        )

    def test_single_policy_runs_do_not_race(self):
        result = synthesize(ones_count_network(6, 3), FlowConfig())
        assert result.race_winners == {}


RECOVERY_CIRCUITS = ["alu2", "misex2"]


def raced(**kwargs) -> FlowConfig:
    return FlowConfig(policy=RACE, **kwargs)


class TestRaceRecovery:
    """Degradation and replay keep a raced run's bytes and its winners."""

    @pytest.mark.parametrize("name", RECOVERY_CIRCUITS)
    @pytest.mark.parametrize("plan,executor", [
        ("drop@0", {}),
        ("kill@1", {"executor": "process", "jobs": 2}),
    ], ids=["serial-drop", "process-kill"])
    def test_a_degraded_group_still_races(self, name, plan, executor):
        net = get_circuit(name).build()
        clean = synthesize(net, raced())
        faulty = synthesize(net, raced(
            fault_plan=parse_fault_plan(plan), task_retries=0, **executor
        ))
        assert write_blif(faulty.network) == write_blif(clean.network)
        assert faulty.engine_stats.groups_degraded >= 1
        assert faulty.race_winners == clean.race_winners
        assert sum(faulty.race_winners.values()) == group_count(net, raced())

    @pytest.mark.parametrize("executor", [
        {}, {"executor": "process", "jobs": 2},
    ], ids=["serial", "process"])
    def test_a_warm_replay_reports_the_cold_winners(self, executor, tmp_path):
        net = get_circuit("alu2").build()
        config = raced(cache_db=str(tmp_path / "cache.db"), **executor)
        cold = synthesize(net, config)
        warm = synthesize(net, config)
        assert warm.engine_stats.cache_hits == group_count(net, config)
        assert write_blif(warm.network) == write_blif(cold.network)
        assert cold.race_winners
        assert warm.race_winners == cold.race_winners


class TestStructuralRace:
    def test_structural_race_reports_its_winners(self):
        net = get_circuit("misex2").build()
        rugged(net)
        result = synthesize_structural(net, FlowConfig(policy=RACE))
        assert result.race_winners
        assert set(result.race_winners) <= set(POLICIES)
