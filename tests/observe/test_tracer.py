"""Unit tests for the hierarchical tracer: spans, counters, deltas, budgets."""

import pytest

from repro import observe
from repro.bdd.manager import BDD
from repro.errors import BudgetExceeded
from repro.observe import Budget, Tracer


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("outer"):
                with observe.span("inner"):
                    pass
        outer = tracer.root.children["outer"]
        assert list(outer.children) == ["inner"]
        assert outer.calls == 1
        assert outer.children["inner"].calls == 1

    def test_same_name_aggregates_under_parent(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("phase"):
                for _ in range(5):
                    with observe.span("step"):
                        pass
        step = tracer.root.children["phase"].children["step"]
        assert step.calls == 5
        assert len(tracer.root.children["phase"].children) == 1

    def test_seconds_accumulate_and_nest(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("outer"):
                with observe.span("inner"):
                    pass
        outer = tracer.root.children["outer"]
        assert outer.seconds >= outer.children["inner"].seconds >= 0.0

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            assert tracer.current is tracer.root
            with observe.span("a"):
                assert tracer.current.name == "a"
            assert tracer.current is tracer.root


class TestCounters:
    def test_add_accumulates(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("s"):
                observe.add("hits")
                observe.add("hits", 2)
        assert tracer.root.children["s"].counters["hits"] == 3

    def test_gauge_keeps_maximum(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("s"):
                observe.gauge("peak", 5)
                observe.gauge("peak", 3)
                observe.gauge("peak", 9)
        assert tracer.root.children["s"].counters["peak"] == 9

    def test_counters_attach_to_innermost_open_span(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("outer"):
                observe.add("outer_only")
                with observe.span("inner"):
                    observe.add("inner_only")
        outer = tracer.root.children["outer"]
        assert "outer_only" in outer.counters
        assert "inner_only" not in outer.counters
        assert outer.children["inner"].counters["inner_only"] == 1


class TestWatchDeltas:
    def test_node_growth_is_attributed_to_open_spans(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("build"):
                bdd = BDD()
                observe.watch(bdd)
                bdd.add_vars(4)
                bdd.apply_and(bdd.var(0), bdd.var(1))
        counters = tracer.root.children["build"].counters
        assert counters["bdd_nodes"] >= 5  # 4 variables + the AND node
        assert counters.get("cache_misses", 0) >= 1

    def test_growth_outside_span_is_not_attributed(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            bdd = BDD()
            observe.watch(bdd)
            bdd.add_vars(4)
            bdd.apply_and(bdd.var(0), bdd.var(1))  # before the span opens
            with observe.span("idle"):
                pass
        assert "bdd_nodes" not in tracer.root.children["idle"].counters

    def test_watch_is_idempotent(self):
        tracer = Tracer()
        bdd = BDD()
        tracer.watch(bdd)
        tracer.watch(bdd)
        assert len(tracer._watched) == 1


class TestBudgets:
    @pytest.mark.parametrize(
        "kwargs",
        [{"seconds": -1.0}, {"seconds": float("nan")},
         {"seconds": float("inf")}, {"nodes": -5}],
    )
    def test_out_of_range_budget_rejected(self, kwargs):
        with pytest.raises(ValueError, match="budget"):
            Budget(**kwargs)

    def test_zero_budget_is_valid(self):
        assert Budget(seconds=0.0, nodes=0) == Budget(seconds=0, nodes=0)

    def test_seconds_budget_raises_at_checkpoint(self):
        tracer = Tracer(budgets={"work": Budget(seconds=0.0)})
        with observe.tracing(tracer):
            with pytest.raises(BudgetExceeded) as exc_info:
                with observe.span("work"):
                    observe.checkpoint()
        exc = exc_info.value
        assert exc.span == "work"
        assert exc.metric == "seconds"
        assert exc.limit == 0.0
        assert exc.actual > 0.0

    def test_nodes_budget_counts_watched_growth(self):
        tracer = Tracer(budgets={"work": Budget(nodes=2)})
        with observe.tracing(tracer):
            with pytest.raises(BudgetExceeded) as exc_info:
                with observe.span("work"):
                    bdd = BDD()
                    observe.watch(bdd)
                    bdd.add_vars(5)
                    observe.checkpoint()
        assert exc_info.value.metric == "nodes"
        assert exc_info.value.actual >= 5

    def test_child_span_entry_is_an_enforcement_point(self):
        tracer = Tracer(budgets={"work": Budget(seconds=0.0)})
        with observe.tracing(tracer):
            with pytest.raises(BudgetExceeded):
                with observe.span("work"):
                    with observe.span("child"):  # no explicit checkpoint needed
                        pass

    def test_budget_is_per_activation(self):
        # Each activation restarts the clock: many short activations of a
        # budgeted span never trip a per-activation bound.
        tracer = Tracer(budgets={"step": Budget(seconds=10.0)})
        with observe.tracing(tracer):
            for _ in range(3):
                with observe.span("step"):
                    observe.checkpoint()
        assert tracer.root.children["step"].calls == 3

    def test_no_budget_no_exception(self):
        tracer = Tracer()
        with observe.tracing(tracer):
            with observe.span("anything"):
                observe.checkpoint()


class TestDisabledHelpers:
    def test_helpers_are_noops_without_tracer(self):
        assert observe.current() is None
        assert not observe.enabled()
        with observe.span("ignored"):
            observe.add("x")
            observe.gauge("y", 1)
            observe.watch(BDD())
            observe.checkpoint()

    def test_tracing_installs_and_restores(self):
        tracer = Tracer()
        assert observe.current() is None
        with observe.tracing(tracer):
            assert observe.current() is tracer
            assert observe.enabled()
        assert observe.current() is None


class TestDeterminism:
    def test_tracing_does_not_change_the_flow_result(self):
        from repro.benchcircuits import get_circuit
        from repro.io.blif import write_blif
        from repro.mapping.flow import FlowConfig, synthesize

        net = get_circuit("rd53").build()
        plain = synthesize(net, FlowConfig(k=4, mode="multi"))
        with observe.tracing(Tracer()):
            traced = synthesize(net, FlowConfig(k=4, mode="multi"))
        assert traced.num_luts == plain.num_luts
        assert write_blif(traced.network) == write_blif(plain.network)
