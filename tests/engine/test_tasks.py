"""The step counters, and the per-kind counts and spans of real runs."""

import pytest

from repro import observe
from repro.benchcircuits.registry import get_circuit
from repro.engine.tasks import TASK_KINDS, EngineStats, TaskCounts
from repro.mapping.flow import FlowConfig, synthesize
from repro.observe import Tracer, build_report, flatten_phases


class TestCounters:
    def test_kind_counts_and_stats(self):
        counts = TaskCounts()
        for kind in ("emit-lut", "emit-lut", "compose", "shannon-split"):
            counts.count(kind)
        counts.note_depth(5)
        counts.note_depth(2)
        stats = counts.stats(executor="serial", workers=1)
        assert stats.tasks_total == 4
        assert stats.tasks_emit_lut == 2
        assert stats.tasks_compose == 1
        assert stats.tasks_shannon == 1
        assert stats.tasks_decompose == 0
        assert stats.queue_depth_max == 5
        assert stats.tasks_offloaded == 0
        assert set(counts.kind_counts()) == set(TASK_KINDS)

    def test_merge_counts_marks_offloaded(self):
        counts = TaskCounts()
        counts.count("compose")
        counts.merge_counts({"emit-lut": 3, "decompose-vector": 2}, offloaded=True)
        stats = counts.stats(executor="process", workers=2)
        assert stats.tasks_total == 6
        assert stats.tasks_offloaded == 5
        assert stats.tasks_emit_lut == 3
        assert stats.executor == "process"
        assert stats.workers == 2

    def test_merge_unknown_kind_rejected(self):
        counts = TaskCounts()
        with pytest.raises(ValueError, match="unknown task kind"):
            counts.merge_counts({"bogus": 1})

    def test_stats_as_dict_is_flat_scalars(self):
        stats = EngineStats(executor="serial", workers=1, tasks_total=7)
        payload = stats.as_dict()
        assert payload["tasks_total"] == 7
        assert all(isinstance(v, (str, int)) for v in payload.values())


# (total, decompose-vector, emit-lut, shannon-split, compose) with k=5.
# Cache entries and the remote wire carry these counts, so every executor
# must count each step of the recursion the same way.
PINNED_COUNTS = {
    "misex1": (47, 11, 22, 2, 12),
    "vg2": (133, 31, 54, 4, 44),
}


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_per_kind_counts_are_pinned(name, executor):
    config = FlowConfig(k=5, executor=executor, jobs=2)
    stats = synthesize(get_circuit(name).build(), config).engine_stats
    counts = (
        stats.tasks_total,
        stats.tasks_decompose,
        stats.tasks_emit_lut,
        stats.tasks_shannon,
        stats.tasks_compose,
    )
    assert counts == PINNED_COUNTS[name]
    if executor == "process" and name == "misex1":
        # misex1 maps several groups, so every step runs in a worker.
        assert stats.tasks_offloaded == stats.tasks_total


# The deepest recursion level of any group, with k=5 (and duke2's Table 2
# group cap).  A group mapped in a worker or replayed from the cache brings
# its own depth back, so the value must not depend on where groups ran.
PINNED_DEPTHS = {
    "misex1": ({}, 3),
    "vg2": ({}, 6),
    "duke2": ({"max_group": 8}, 11),
}


@pytest.mark.parametrize("name", sorted(PINNED_DEPTHS))
def test_queue_depth_max_is_the_same_under_every_executor(name, tmp_path):
    knobs, depth = PINNED_DEPTHS[name]
    db = str(tmp_path / "cache.db")
    runs = {
        "serial": FlowConfig(k=5, **knobs),
        "cold-cache": FlowConfig(k=5, cache_db=db, **knobs),
        "warm-cache": FlowConfig(k=5, cache_db=db, **knobs),
        "process": FlowConfig(k=5, executor="process", jobs=2, **knobs),
    }
    depths = {
        label: synthesize(get_circuit(name).build(), config)
        .engine_stats.queue_depth_max
        for label, config in runs.items()
    }
    assert depths == dict.fromkeys(runs, depth)


def test_traced_span_paths_are_pinned():
    # The decompose-vector span covers the policy call only, so the spans
    # of a vector's steps sit side by side under ``map``; benchmark files
    # and docs cite these paths.
    tracer = Tracer()
    with observe.tracing(tracer):
        synthesize(get_circuit("misex1").build(), FlowConfig(k=5))
    assert set(flatten_phases(build_report(tracer))) == {
        "collapse",
        "map",
        "map/compose",
        "map/decompose-vector",
        "map/decompose-vector/choose_bound_set",
        "map/decompose-vector/imodec",
        "map/emit-lut",
        "map/shannon-split",
        "partition_outputs",
        "partition_outputs/choose_bound_set",
        "partition_outputs/imodec",
    }
