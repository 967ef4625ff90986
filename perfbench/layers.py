"""Outside-in per-layer trace of one benchmark pass.

The benchmark does not instrument the program.  It wraps each layer's
public entry points *where they are imported* (``choose_bound_set`` is bound
by name in both ``repro.partitioning.outputs`` and ``repro.engine.policies``,
so both bindings are wrapped, each under its own metric), installs the
program's own :class:`repro.observe.Tracer` for the counters the program
already records, and reads ``FlowResult.engine_stats`` / ``bdd_stats``.

A wrapped call's inclusive time is counted once even when calls nest
recursively; its self time is the inclusive time minus the time of the
wrapped calls made inside it.  Pool workers run untraced, so on the
process executor only the parent side is visible.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# (metric, module, attribute): every binding a pass calls through.  A class
# attribute is written "Class.method".
WRAPPED = (
    ("network.collapse", "repro.mapping.flow", "collapse"),
    ("mapping.partial_collapse", "repro.mapping.structural", "partial_collapse"),
    ("partitioning.partition_outputs", "repro.mapping.flow", "partition_outputs"),
    ("partitioning.partition_outputs", "repro.mapping.structural", "partition_outputs"),
    ("partitioning.trial_bound_set", "repro.partitioning.outputs", "choose_bound_set"),
    ("partitioning.decompose_bound_set", "repro.engine.policies", "choose_bound_set"),
    ("imodec.trial", "repro.partitioning.outputs", "decompose_multi"),
    ("imodec.decompose", "repro.engine.policies", "decompose_multi"),
    ("engine.run_groups", "repro.engine.executors", "Engine.run_groups"),
    ("engine.dispatch", "repro.engine.executors", "ProcessExecutor.submit_groups"),
    ("engine.collect", "repro.engine.executors", "ProcessExecutor.collect_groups"),
)

BOUND_SET_CALLS = ("partitioning.trial_bound_set", "partitioning.decompose_bound_set")

# Per-layer metric -> unit, in report order.
UNITS = {
    "network.collapse_s": "s",
    "mapping.partial_collapse_s": "s",
    "mapping.clusters": "count",
    "partitioning.partition_outputs_s": "s",
    "partitioning.partition_outputs_self_s": "s",
    "partitioning.trials": "count",
    "partitioning.candidates_scored": "count",
    "partitioning.us_per_candidate": "us",
    "partitioning.trial_bound_set_s": "s",
    "partitioning.decompose_bound_set_s": "s",
    "partitioning.tt_path_frac": "ratio",
    "partitioning.bound_set_repeat_ratio": "ratio",
    "imodec.trial_s": "s",
    "imodec.decompose_s": "s",
    "imodec.iterations": "count",
    "imodec.chi_computed": "count",
    "imodec.chi_cache_hit_ratio": "ratio",
    "imodec.zspace_nodes": "count",
    "engine.run_groups_s": "s",
    "engine.collect_wait_s": "s",
    "engine.tasks_total": "count",
    "engine.tasks_offloaded": "count",
    "engine.queue_depth_max": "count",
    "engine.tasks_retried": "count",
    "engine.groups_degraded": "count",
    "engine.placeable_frac": "ratio",
    "bdd.nodes": "count",
    "bdd.op_cache_hit_rate": "ratio",
    "bdd.op_cache_evictions": "count",
    "mapping.pack_s": "s",
    "io.write_blif_s": "s",
    "io.parse_blif_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that only see the parent process under the process executor.
WORKER_SIDE = (
    "partitioning.decompose_bound_set_s",
    "imodec.decompose_s",
    "imodec.iterations",
    "imodec.chi_computed",
    "imodec.chi_cache_hit_ratio",
    "imodec.zspace_nodes",
)


class LayerTrace:
    """Inclusive and self seconds of the wrapped bindings, and bound-set repeats."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)  # outermost calls
        self.bound_set_calls = 0
        self.bound_set_repeats = 0
        self._stack: list[list] = []  # [metric, child seconds]
        self._seen_keys: set[tuple] = set()
        self._managers: list = []  # pins managers so id() stays unique

    def timed(self, metric: str, fn):
        """``fn`` wrapped to accumulate into ``metric``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [metric, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[metric] += elapsed - frame[1]
                if all(f[0] != metric for f in self._stack):
                    self.inclusive[metric] += elapsed
                layer = metric.split(".")[0]
                if all(f[0].split(".")[0] != layer for f in self._stack):
                    self.layer_s[layer] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed

        return wrapper

    def bound_set_key(self, fn):
        """``fn`` (a ``choose_bound_set``) wrapped to count repeated requests.

        The key is (manager, roots, usable levels, bound size, scorer): a
        call whose key was already seen recomputes a bound set.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            bdd = a["bdd"]
            if not any(m is bdd for m in self._managers):
                self._managers.append(bdd)
            key = (
                id(bdd),
                tuple(a["f_nodes"]),
                tuple(a["input_levels"]),
                a["bound_size"],
                a["strategy"],
                a["scorer"],
            )
            self.bound_set_calls += 1
            if key in self._seen_keys:
                self.bound_set_repeats += 1
            else:
                self._seen_keys.add(key)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding in :data:`WRAPPED`; restore them on exit."""
        saved = []
        try:
            for metric, module_name, attr in WRAPPED:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                wrapped = self.timed(metric, original)
                if metric in BOUND_SET_CALLS:
                    wrapped = self.bound_set_key(wrapped)
                setattr(owner, name, wrapped)
                saved.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)
            self._managers.clear()
            self._seen_keys.clear()


def counter_totals(tracer) -> dict[str, float]:
    """Every counter of a :class:`repro.observe.Tracer`, summed over its spans."""
    totals: dict[str, float] = defaultdict(float)
    stack = [tracer.root]
    while stack:
        span = stack.pop()
        for name, value in span.counters.items():
            totals[name] += value
        stack.extend(span.children.values())
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: LayerTrace,
    counters: dict[str, float],
    results: list,
    wall_s: float,
    pack_s: float,
    write_s: float,
) -> dict[str, float]:
    """Per-layer metric values of one traced pass (see :data:`UNITS`)."""
    inc = trace.inclusive
    bound_set_s = sum(inc[m] for m in BOUND_SET_CALLS)
    candidates = counters["candidates_scored"]
    tt = counters["tt_fast_path"]
    chi = counters["chi_computed"]
    engine_s = trace.layer_s["engine"]
    engine = [r.engine_stats for r in results]
    bdd = [r.bdd_stats for r in results]
    hits = sum(s.hits for s in bdd)
    return {
        "network.collapse_s": inc["network.collapse"],
        "mapping.partial_collapse_s": inc["mapping.partial_collapse"],
        "mapping.clusters": counters["clusters"],
        "partitioning.partition_outputs_s": inc["partitioning.partition_outputs"],
        "partitioning.partition_outputs_self_s": trace.self_s[
            "partitioning.partition_outputs"
        ],
        "partitioning.trials": counters["trial_decompositions"],
        "partitioning.candidates_scored": candidates,
        "partitioning.us_per_candidate": 1e6 * _ratio(bound_set_s, candidates),
        "partitioning.trial_bound_set_s": inc["partitioning.trial_bound_set"],
        "partitioning.decompose_bound_set_s": inc["partitioning.decompose_bound_set"],
        "partitioning.tt_path_frac": _ratio(tt, tt + counters["bdd_scoring_path"]),
        "partitioning.bound_set_repeat_ratio": _ratio(
            trace.bound_set_repeats, trace.bound_set_calls
        ),
        "imodec.trial_s": inc["imodec.trial"],
        "imodec.decompose_s": inc["imodec.decompose"],
        "imodec.iterations": counters["iterations"],
        "imodec.chi_computed": chi,
        "imodec.chi_cache_hit_ratio": _ratio(
            counters["chi_cache_hits"], chi + counters["chi_cache_hits"]
        ),
        "imodec.zspace_nodes": counters["zspace_nodes"],
        "engine.run_groups_s": engine_s,
        "engine.collect_wait_s": inc["engine.collect"],
        "engine.tasks_total": sum(s.tasks_total for s in engine),
        "engine.tasks_offloaded": sum(s.tasks_offloaded for s in engine),
        "engine.queue_depth_max": max((s.queue_depth_max for s in engine), default=0),
        "engine.tasks_retried": sum(s.tasks_retried for s in engine),
        "engine.groups_degraded": sum(s.groups_degraded for s in engine),
        "engine.placeable_frac": _ratio(engine_s, wall_s),
        "bdd.nodes": sum(s.nodes for s in bdd),
        "bdd.op_cache_hit_rate": _ratio(hits, hits + sum(s.misses for s in bdd)),
        "bdd.op_cache_evictions": sum(s.evictions for s in bdd),
        "mapping.pack_s": pack_s,
        "io.write_blif_s": write_s,
        "trace.wall_s": wall_s,
    }
