"""Unit tests for the technology-target seam (registry, costs, resolver).

The contract under test (see ``docs/TARGETS.md``): ``make_target`` is a
total registry with one-line errors, ``resolve_target`` settles the
``(target, k)`` pair deterministically, and the reference ``xc3000-clb``
target reproduces the historical ranking tuple exactly -- the anchor of
the byte-identity guarantee.
"""

import pytest

from repro.boolfunc.sop import Sop
from repro.boolfunc.truthtable import TruthTable
from repro.engine.worker import NodeSpec
from repro.network.network import Network
from repro.targets import (
    AUTO_TARGET,
    DEFAULT_K,
    LutTarget,
    TARGET_NAMES,
    TargetCost,
    TechTarget,
    Xc3000Target,
    make_target,
    report_section,
    resolve_target,
    spec_group_cost,
)


class TestRegistry:
    def test_every_listed_name_constructs(self):
        for name in TARGET_NAMES:
            target = make_target(name)
            assert target.name == name
            assert isinstance(target, TechTarget)

    def test_lut_k_is_generic_beyond_the_listed_sweep(self):
        target = make_target("lut-7")
        assert isinstance(target, LutTarget)
        assert target.k == 7 and target.name == "lut-7"

    def test_unknown_target_is_a_one_line_error(self):
        with pytest.raises(ValueError, match="unknown target") as err:
            make_target("asic")
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("name", ["lut-2", "lut-0", "lut--3", "lut-x"])
    def test_sub_shannon_and_malformed_lut_widths_rejected(self, name):
        with pytest.raises(ValueError):
            make_target(name)


class TestResolveTarget:
    def test_auto_defaults_to_the_reference_target(self):
        assert resolve_target(AUTO_TARGET, None) == ("xc3000-clb", DEFAULT_K)
        assert resolve_target(None, None) == ("xc3000-clb", DEFAULT_K)

    def test_auto_with_non_default_k_picks_lut_k(self):
        assert resolve_target(AUTO_TARGET, 4) == ("lut-4", 4)
        assert resolve_target(AUTO_TARGET, 6) == ("lut-6", 6)

    def test_auto_with_the_default_k_stays_on_the_reference(self):
        assert resolve_target(AUTO_TARGET, 5) == ("xc3000-clb", 5)

    def test_concrete_name_supplies_its_own_k(self):
        assert resolve_target("lut-4", None) == ("lut-4", 4)
        assert resolve_target("xc3000-clb", None) == ("xc3000-clb", 5)

    def test_concrete_name_accepts_a_matching_explicit_k(self):
        assert resolve_target("lut-4", 4) == ("lut-4", 4)
        assert resolve_target("xc3000-clb", 5) == ("xc3000-clb", 5)

    def test_lut_5_is_not_silently_the_reference_target(self):
        # Same network, different pricing: the names stay distinct.
        assert resolve_target("lut-5", None) == ("lut-5", 5)

    @pytest.mark.parametrize(
        "name, k", [("lut-4", 5), ("lut-6", 4), ("xc3000-clb", 4)]
    )
    def test_conflicting_explicit_k_is_rejected(self, name, k):
        with pytest.raises(ValueError, match="contradicts"):
            resolve_target(name, k)

    def test_unknown_name_propagates_the_registry_error(self):
        with pytest.raises(ValueError, match="unknown target"):
            resolve_target("asic", None)


class TestXc3000Reference:
    def test_candidate_key_is_the_historical_tuple(self):
        # Byte-identity anchor: exactly the pre-seam ladder-peel ranking
        # (progress flag, shared-pool size q, composition inputs).
        target = Xc3000Target()
        for progressing in ([], [0], [0, 2]):
            for q in (1, 3):
                for g in (2, 7):
                    want = (0 if progressing else 1, q, g)
                    assert target.candidate_key(progressing, q, g) == want

    def test_lut_targets_share_the_reference_ranking(self):
        # lut-5 must reproduce the xc3000-clb *network* exactly; only the
        # pricing differs, so the in-flight ranking must be identical.
        ref, lut = Xc3000Target(), LutTarget(5)
        assert ref.candidate_key([1], 2, 6) == lut.candidate_key([1], 2, 6)
        assert ref.candidate_key([], 4, 9) == lut.candidate_key([], 4, 9)

    def test_feasibility_boundary(self):
        target = Xc3000Target()
        assert target.feasible(5) and not target.feasible(6)
        assert LutTarget(4).feasible(4) and not LutTarget(4).feasible(5)


class TestGroupCost:
    NODES = (
        NodeSpec("g0", ("a", "b", "c", "d"), 4, ((0b1111, 0b1010),)),
        NodeSpec("g1", ("a", "b"), 2, ((0b11, 0b01),)),
        NodeSpec("f0", ("g0", "g1", "e"), 3, ((0b111, 0b110),)),
        NodeSpec("k1", (), 0, (), constant=True),
    )

    def test_constants_are_free(self):
        assert spec_group_cost(self.NODES, pair_fanin=None) == (3, 9)

    def test_pairing_lower_bound_leads_the_clb_tuple(self):
        # All three logic cells have <= 4 fanins, so one pair forms:
        # 3 cells - 3 // 2 = 2 CLBs lower bound, then cells, then fanins.
        assert spec_group_cost(self.NODES, pair_fanin=4) == (2, 3, 9)

    def test_targets_delegate_to_the_shared_helper(self):
        assert Xc3000Target().group_cost(self.NODES) == (2, 3, 9)
        assert LutTarget(5).group_cost(self.NODES) == (3, 9)

    def test_wide_cells_do_not_pair(self):
        wide = (NodeSpec("w", ("a", "b", "c", "d", "e"), 5, ((0b11111, 0),)),)
        assert spec_group_cost(wide, pair_fanin=4) == (1, 1, 5)


def two_lut_network():
    """Two 3-input LUTs and one 2-input combiner (all pairable)."""
    net = Network("tiny")
    for name in ("a", "b", "c", "d", "e", "f"):
        net.add_input(name)
    maj = Sop.from_truthtable(
        TruthTable.from_function(3, lambda x, y, z: x + y + z >= 2)
    )
    net.add_node("g0", ["a", "b", "c"], maj)
    net.add_node("g1", ["d", "e", "f"], maj)
    net.add_node(
        "out",
        ["g0", "g1"],
        Sop.from_truthtable(TruthTable.from_function(2, lambda x, y: x ^ y)),
    )
    net.set_outputs(["out"])
    return net


class TestNetworkCost:
    def test_xc3000_prices_in_clbs_with_packing_detail(self):
        cost = Xc3000Target().network_cost(two_lut_network())
        assert isinstance(cost, TargetCost)
        assert cost.luts == 3
        assert cost.units == 2  # one pair + one single
        assert cost.unit_name == "XC3000 CLB"
        assert "paired" in cost.detail and "single" in cost.detail

    def test_lut4_prices_in_xc4000_clbs(self):
        cost = LutTarget(4).network_cost(two_lut_network())
        assert cost.luts == 3
        assert cost.unit_name == "XC4000 CLB"
        assert cost.units == 1  # g0 + g1 + H-combiner is one triple
        assert "triples" in cost.detail

    def test_plain_lut_targets_price_in_luts(self):
        cost = LutTarget(6).network_cost(two_lut_network())
        assert cost.luts == cost.units == 3
        assert cost.unit_name == "LUT"
        assert cost.detail == ""


class TestReportSection:
    def test_minimal_section(self):
        assert report_section("xc3000-clb", 5) == {
            "name": "xc3000-clb",
            "k": 5,
        }

    def test_full_section_stays_flat_scalars_plus_race_winners(self):
        section = report_section(
            "lut-4",
            4,
            race_winners={"ladder-peel": 2},
            cost=TargetCost(luts=7, units=4, unit_name="XC4000 CLB"),
        )
        assert section == {
            "name": "lut-4",
            "k": 4,
            "luts": 7,
            "units": 4,
            "unit_name": "XC4000 CLB",
            "race_winners": {"ladder-peel": 2},
        }

    def test_empty_race_winners_is_omitted(self):
        assert "race_winners" not in report_section(
            "xc3000-clb", 5, race_winners={}
        )

    def test_section_validates_inside_a_report(self):
        from repro import observe
        from repro.observe import Tracer, build_report, validate_report

        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("synthesize"):
                pass
        report = build_report(
            tracer, target=report_section("xc3000-clb", 5)
        )
        validate_report(report)
