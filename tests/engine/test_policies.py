"""Unit tests for decomposition policies (the extracted flow heuristics)."""

import pytest

from repro import observe
from repro.bdd.manager import BDD
from repro.engine.policies import POLICIES, LadderPeelPolicy, make_policy
from repro.mapping.flow import FlowConfig
from repro.observe import Tracer


def adder_vector(n=6):
    """The two low sum bits of an n-input ones-counter: wide, decomposable."""
    bdd = BDD()
    xs = [bdd.add_var(f"x{i}") for i in range(n)]
    zero, one = 0, 1

    def bit_of_sum(b):
        # sum of inputs, bit b, built by BDD arithmetic over indicator vars
        bits = []
        for x in xs:
            carry = x
            for i, acc in enumerate(bits):
                new = bdd.apply_xor(acc, carry)
                carry = bdd.apply_and(acc, carry)
                bits[i] = new
            bits.append(carry)
        return bits[b] if b < len(bits) else zero

    return bdd, [bit_of_sum(0), bit_of_sum(1)]


class TestMakePolicy:
    def test_default_policy_resolves(self):
        policy = make_policy(FlowConfig())
        assert isinstance(policy, LadderPeelPolicy)

    def test_registry_contains_default(self):
        assert "ladder-peel" in POLICIES

    def test_unknown_policy_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown policy"):
            FlowConfig(policy="coin-flip")


class TestLadderPeelPolicy:
    def test_decision_partitions_positions(self):
        bdd, vector = adder_vector()
        decision = make_policy(FlowConfig(k=4)).decompose(bdd, vector)
        assert sorted(decision.kept + decision.peeled) == list(range(len(vector)))

    def test_result_verifies_against_kept_vector(self):
        bdd, vector = adder_vector()
        decision = make_policy(FlowConfig(k=4)).decompose(bdd, vector)
        assert decision.result is not None
        kept_vec = [vector[p] for p in decision.kept]
        assert decision.result.verify(bdd, kept_vec)

    def test_policy_is_deterministic(self):
        bdd, vector = adder_vector()
        policy = make_policy(FlowConfig(k=4))
        a = policy.decompose(bdd, list(vector))
        b = policy.decompose(bdd, list(vector))
        assert (a.kept, a.peeled, a.bound, a.bs) == (b.kept, b.peeled, b.bound, b.bs)

    def test_peel_rounds_zero_disables_peeling(self):
        # flat-ladder is the ladder with zero peel rounds.
        bdd, vector = adder_vector()
        decision = make_policy(
            FlowConfig(k=4, policy="flat-ladder")
        ).decompose(bdd, vector)
        assert decision.peeled == []
        assert decision.kept == list(range(len(vector)))

    def test_scorer_race_skip_counter(self):
        # Both scorers frequently select the same bound set on a symmetric
        # function; the second decomposition must then be skipped.
        bdd, vector = adder_vector()
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("policy"):
                make_policy(FlowConfig(k=4)).decompose(bdd, vector)
        counters = tracer.root.children["policy"].counters
        # either the bound sets differed (no skip) or the skip was counted;
        # the symmetric ones-counter makes them agree.
        assert counters.get("scorer_race_skips", 0) >= 1
