"""Unit tests for the LUT synthesis flow."""

import random

import pytest

from repro.boolfunc.sop import Sop
from repro.boolfunc.truthtable import TruthTable
from repro.engine import policies
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.mapping.lut import check_k_feasible, lut_count
from repro.network.network import Network


def network_from_tables(tables, name="tst"):
    net = Network(name)
    n = tables[0].num_vars
    for i in range(n):
        net.add_input(f"x{i}")
    for k, t in enumerate(tables):
        net.add_node(f"f{k}", [f"x{i}" for i in range(n)], Sop.from_truthtable(t))
    net.set_outputs([f"f{k}" for k in range(len(tables))])
    return net


def ones_count_network(n, bits):
    tables = [
        TruthTable.from_function(n, lambda *xs, b=b: (sum(xs) >> b) & 1)
        for b in range(bits)
    ]
    return network_from_tables(tables, name=f"rd{n}{bits}")


class TestBasicMapping:
    def test_small_function_single_lut(self):
        t = TruthTable.from_function(4, lambda a, b, c, d: (a and b) or (c and d))
        net = network_from_tables([t])
        result = synthesize(net, FlowConfig(k=5))
        assert result.num_luts == 1
        assert verify_flow(net, result)

    def test_constant_output(self):
        net = Network("const")
        net.add_input("a")
        net.add_constant("k1", True)
        net.set_outputs(["k1"])
        result = synthesize(net)
        assert verify_flow(net, result)
        assert lut_count(result.network) <= 1  # just the constant node

    def test_wire_output(self):
        net = Network("wire")
        net.add_input("a")
        net.add_input("b")
        net.add_node("y", ["a"], Sop.from_strings(1, ["1"]))
        net.set_outputs(["y"])
        result = synthesize(net)
        assert verify_flow(net, result)
        assert result.output_signals["y"] == "a"
        assert result.num_luts == 0


class TestDecompositionMapping:
    def test_rd53_multi_mode(self):
        net = ones_count_network(5, 3)
        result = synthesize(net, FlowConfig(k=4, mode="multi"))
        assert verify_flow(net, result)
        check_k_feasible(result.network, 4)

    def test_rd53_single_mode(self):
        net = ones_count_network(5, 3)
        result = synthesize(net, FlowConfig(k=4, mode="single"))
        assert verify_flow(net, result)
        check_k_feasible(result.network, 4)

    def test_multi_beats_or_ties_single_on_rd53(self):
        """The Fig. 1 effect: sharing reduces the LUT count."""
        net = ones_count_network(5, 3)
        multi = synthesize(net, FlowConfig(k=4, mode="multi"))
        single = synthesize(net, FlowConfig(k=4, mode="single"))
        assert multi.num_luts < single.num_luts

    def test_wide_function_verifies(self):
        rng = random.Random(11)
        tables = [TruthTable.random(8, rng) for _ in range(2)]
        net = network_from_tables(tables)
        for mode in ("multi", "single"):
            result = synthesize(net, FlowConfig(k=5, mode=mode))
            assert verify_flow(net, result)
            check_k_feasible(result.network, 5)

    def test_records_track_m_and_p(self):
        net = ones_count_network(6, 3)
        result = synthesize(net, FlowConfig(k=5, mode="multi"))
        assert result.max_group_outputs >= 2
        assert result.max_globals >= 2

    def test_k3_mux_fallback_possible(self):
        rng = random.Random(3)
        tables = [TruthTable.random(6, rng)]
        net = network_from_tables(tables)
        result = synthesize(net, FlowConfig(k=3, mode="single"))
        assert verify_flow(net, result)
        check_k_feasible(result.network, 3)

    def test_k_too_small_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(k=2)


class TestSharedOutputs:
    def test_duplicate_outputs(self):
        t = TruthTable.from_function(6, lambda *xs: sum(xs) % 3 == 0)
        net = network_from_tables([t, t])
        result = synthesize(net, FlowConfig(k=4, mode="multi"))
        assert verify_flow(net, result)

    def test_output_equal_to_input_complement(self):
        net = Network("inv")
        net.add_input("a")
        net.add_node("y", ["a"], Sop.from_strings(1, ["0"]))
        net.set_outputs(["y"])
        result = synthesize(net)
        assert verify_flow(net, result)
        assert result.num_luts == 1


class TestStrictFlow:
    def test_strict_flow_is_exact_but_never_better(self):
        net = ones_count_network(5, 3)
        loose = synthesize(net, FlowConfig(k=4, mode="multi"))
        strict = synthesize(net, FlowConfig(k=4, mode="multi", strict=True))
        assert verify_flow(net, strict)
        assert loose.num_luts <= strict.num_luts


class TestShannonFallback:
    """Pinned non-decomposable function exercising the mux-split path.

    The truth table was found by search: with the ladder capped at k
    (``LADDER_CAP`` patched to 4; the runs are serial, so the patch
    reaches the policy) the bound set cannot widen, no 4-variable bound
    set makes progress, and the flow must fall back to a Shannon split
    (Section 7's termination guarantee).
    """

    PINNED_BITS = 0xCD613E30D8F16ADF  # 6-variable truth table
    CONFIG = dict(k=4)

    @pytest.fixture
    def capped(self, monkeypatch):
        monkeypatch.setattr(policies, "LADDER_CAP", 4)

    def _network(self):
        return network_from_tables([TruthTable(6, self.PINNED_BITS)])

    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_mux_split_fires_and_verifies(self, mode, capped):
        net = self._network()
        result = synthesize(net, FlowConfig(mode=mode, **self.CONFIG))
        assert result.engine_stats.tasks_shannon > 0
        # the mux LUT is present (prefix M) and the result is exact
        assert any(name.startswith("M") for name in result.network.nodes)
        assert verify_flow(net, result)
        check_k_feasible(result.network, 4)

    def test_truncation_counters_fire(self, capped):
        from repro import observe
        from repro.observe import Tracer

        net = self._network()
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("synthesize"):
                synthesize(net, FlowConfig(mode="single", **self.CONFIG))
        flat = tracer.root.children["synthesize"]

        def total(span, key):
            own = span.counters.get(key, 0)
            return own + sum(total(c, key) for c in span.children.values())

        assert total(flat, "shannon_splits") > 0
        assert total(flat, "ladder_cap_truncations") > 0

    def test_wider_ladder_decomposes_the_same_function(self):
        # the default cap lets the ladder widen past the stuck bound
        net = self._network()
        result = synthesize(net, FlowConfig(k=4, mode="single"))
        assert result.engine_stats.tasks_shannon == 0
        assert verify_flow(net, result)


class TestFlowConfigValidation:
    def test_ladder_cap_below_k_rejected(self):
        FlowConfig(k=policies.LADDER_CAP)
        with pytest.raises(ValueError, match="LADDER_CAP"):
            FlowConfig(k=policies.LADDER_CAP + 1)

    @pytest.mark.parametrize("knob", ["mode", "tie_break", "var_strategy"])
    def test_unknown_literal_value_rejected(self, knob):
        # mode="Multi" used to map silently as single mode.
        with pytest.raises(ValueError, match=f"unknown {knob} 'Multi'"):
            FlowConfig(**{knob: "Multi"})

    def test_config_is_frozen(self):
        config = FlowConfig()
        with pytest.raises(Exception):
            config.k = 6


class TestTypedStats:
    def test_bdd_stats_is_dataclass(self):
        from repro.observe import BddStats

        net = ones_count_network(5, 2)
        result = synthesize(net, FlowConfig(k=4))
        assert isinstance(result.bdd_stats, BddStats)
        assert result.bdd_stats.nodes > 0
        payload = result.bdd_stats.as_dict()
        assert set(payload) == {
            "nodes", "entries", "hits", "misses", "evictions", "hit_rate",
        }
