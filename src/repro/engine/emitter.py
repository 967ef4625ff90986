"""The mapping recursion: from a function vector to LUT signals.

:class:`EmitContext` is the mutable emission state of one synthesis run
(the LUT network under construction, the level-to-signal binding, constant
sharing, group records).

:meth:`VectorEmitter.map_vector` maps one vector by the paper's recursion
(Section 7): ask the :class:`DecomposePolicy` for a decomposition, then
emit the k-feasible outputs, map the peeled outputs, record the group,
emit or map each used decomposition function and bind its code levels,
map the g-vector, and Shannon-split the outputs that do not shrink.  That
order fixes the LUT names, so every executor emits the same bytes.  Each
step is counted under its kind (:mod:`repro.engine.tasks`) and timed under
a span of that name; the ``decompose-vector`` span covers the policy call
only, so the spans of a vector's children never nest inside it.

Cancellation (:func:`request_cancel`) and the tracer's budgets are checked
at every vector step, so a run stops inside a group as well as between
groups.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro import observe
from repro.bdd.manager import BDD, FALSE, TRUE
from repro.boolfunc.sop import Sop
from repro.boolfunc.truthtable import TruthTable
from repro.engine.policies import DecomposePolicy, PolicyDecision
from repro.engine.tasks import TaskCounts
from repro.errors import RunInterrupted
from repro.targets import make_target

if TYPE_CHECKING:  # pragma: no cover - type-only (flow imports engine)
    from repro.mapping.flow import FlowConfig, GroupRecord


# Process-wide cancellation flag.  Signal handlers (CLI) and the server's
# drain set it from another context; the recursion checks it at every
# vector step and the executors at every future wait, and both unwind with
# RunInterrupted, cancelling outstanding futures on the way out.
_CANCEL = threading.Event()


def request_cancel() -> None:
    """Ask every in-flight drain to stop at its next safe boundary.

    Safe to call from signal handlers and other threads.  The drains
    raise :class:`repro.errors.RunInterrupted` once they notice; every
    group merged before then is already in any configured result cache,
    so a re-run with that cache resumes to byte-identical output.
    """
    _CANCEL.set()


def cancel_requested() -> bool:
    """Whether a cancellation has been requested and not yet cleared."""
    return _CANCEL.is_set()


def reset_cancel() -> None:
    """Clear the cancellation flag (call before starting a fresh run)."""
    _CANCEL.clear()


class EmitContext:
    """Mutable state threaded through one synthesis run.

    ``signal_of_level`` maps BDD levels to signal names in the target LUT
    network; the collapsed flow seeds it with the primary inputs, the
    structural flow with whatever signals feed the cluster being mapped.
    """

    def __init__(
        self,
        bdd: BDD,
        config: "FlowConfig",
        lut,
        signal_of_level: dict[int, str],
        records: list["GroupRecord"] | None = None,
        constants: dict[bool, str] | None = None,
    ) -> None:
        """Bind the shared flow state one emission run works against."""
        self.bdd = bdd
        self.config = config
        self.target = make_target(config.target)
        self.lut = lut
        self.signal_of_level = signal_of_level
        self.records: list["GroupRecord"] = records if records is not None else []
        self.constants: dict[bool, str] = constants if constants is not None else {}

    # ------------------------------------------------------------------

    def constant_signal(self, value: bool) -> str:
        """Signal carrying constant ``value``, emitting its LUT on first use."""
        sig = self.constants.get(value)
        if sig is None:
            sig = self.lut.fresh_name("const")
            self.lut.add_constant(sig, value)
            self.constants[value] = sig
        return sig

    def emit_lut(self, f: int, cache: dict[int, str]) -> str:
        """Emit a function with support <= k as one LUT node (or an alias)."""
        bdd = self.bdd
        if f == TRUE:
            return self.constant_signal(True)
        if f == FALSE:
            return self.constant_signal(False)
        cached = cache.get(f)
        if cached is not None:
            return cached
        support = sorted(bdd.support(f))
        if len(support) == 1 and f == bdd.var(support[0]):
            sig = self.signal_of_level[support[0]]
            cache[f] = sig
            return sig
        fanins = [self.signal_of_level[lvl] for lvl in support]
        bits = bdd.to_truth_bits(f, support)
        table = TruthTable(len(support), bits)
        name = self.lut.fresh_name("L")
        self.lut.add_node(name, fanins, Sop.from_truthtable(table))
        cache[f] = name
        observe.add("luts_emitted")
        return name


class VectorEmitter:
    """Maps function vectors to signals by recursion against an EmitContext."""

    def __init__(
        self, context: EmitContext, policy: DecomposePolicy, counts: TaskCounts
    ) -> None:
        """Emit into ``context`` using ``policy``, counting steps in ``counts``."""
        self.context = context
        self.policy = policy
        self.counts = counts

    @contextmanager
    def _step(self, kind: str) -> Iterator[None]:
        """Time one step under the span ``kind``, then count it."""
        with observe.span(kind):
            yield
        self.counts.count(kind)

    def map_vector(
        self, f_nodes: list[int], cache: dict[int, str], depth: int = 1
    ) -> list[str]:
        """Map ``f_nodes`` to their LUT-network signals, in order.

        ``cache`` shares emitted LUTs within one group; ``depth`` is the
        recursion level (1 for a group).  The deepest level any group
        reaches is the run's ``queue_depth_max``, under every executor: a
        group mapped elsewhere brings its own back (``GroupResult.depth``).
        """
        if cancel_requested():
            raise RunInterrupted("group mapping cancelled (signal or server drain)")
        observe.checkpoint()  # budget enforcement point per vector step
        self.counts.note_depth(depth)
        ctx = self.context
        bdd = ctx.bdd
        with self._step("decompose-vector"):
            feasible = [ctx.target.feasible(len(bdd.support(f))) for f in f_nodes]
            pending = [i for i, ok in enumerate(feasible) if not ok]
            vector = [f_nodes[i] for i in pending]
            # single mode maps every output in isolation (the classical
            # baseline), so only a lone output reaches the policy.
            split = ctx.config.mode == "single" and len(pending) > 1
            decision = (
                self.policy.decompose(bdd, vector) if vector and not split else None
            )

        signals: list[str | None] = [None] * len(f_nodes)
        for i, f in enumerate(f_nodes):
            if feasible[i]:
                with self._step("emit-lut"):
                    signals[i] = ctx.emit_lut(f, cache)
        if split:
            for i in pending:
                (signals[i],) = self.map_vector([f_nodes[i]], cache, depth + 1)
        if decision is None:
            return signals

        # Peeled outputs map individually, in peel order.
        for p in decision.peeled:
            (signals[pending[p]],) = self.map_vector([vector[p]], cache, depth + 1)
        result = decision.result
        if result is None:  # everything peeled away
            return signals

        with self._step("compose"):
            self._record_group(decision)

        progressing = decision.progressing
        if progressing:
            # Emit the shared decomposition functions used by progressing
            # outputs (mapped recursively if wider than k), binding each
            # code level to its signal, then map the g-vector over them.
            used_pool = sorted(
                {idx for j in progressing for idx in result.assignments[j]}
            )
            for idx in used_pool:
                self._map_pool(idx, decision, cache, depth)
            g_signals = self.map_vector(
                [result.g_nodes[j] for j in progressing], cache, depth + 1
            )
            for j, sig in zip(progressing, g_signals):
                signals[pending[decision.kept[j]]] = sig

        for j, p in enumerate(decision.kept):
            if j not in progressing:
                signals[pending[p]] = self._shannon(vector[p], cache, depth)

        with self._step("compose"):
            missing = [i for i, sig in enumerate(signals) if sig is None]
            if missing:
                raise AssertionError(f"vector outputs {missing} got no signal")
        return signals

    def _record_group(self, decision: PolicyDecision) -> None:
        """Book-keep one multiple-output decomposition step."""
        from repro.mapping.flow import GroupRecord

        result = decision.result
        self.context.records.append(
            GroupRecord(
                outputs=len(decision.kept),
                num_globals=result.num_global_classes,
                num_functions=result.num_functions,
                num_functions_unshared=result.num_functions_unshared,
            )
        )
        observe.add("groups_decomposed")
        observe.add(
            "functions_shared_away",
            result.num_functions_unshared - result.num_functions,
        )
        observe.gauge("max_group_outputs", len(decision.kept))
        observe.gauge("max_global_classes", result.num_global_classes)

    def _map_pool(
        self, idx: int, decision: PolicyDecision, cache: dict[int, str], depth: int
    ) -> None:
        """Emit pool function ``idx`` (or map it, if wider than k), then
        bind the code levels it drives."""
        ctx = self.context
        result = decision.result
        d_node = result.d_pool[idx].node

        def bind(d_sig: str) -> None:
            for j in decision.progressing:
                for bit, assigned in enumerate(result.assignments[j]):
                    if assigned == idx:
                        ctx.signal_of_level[result.code_levels[j][bit]] = d_sig

        if ctx.target.feasible(len(ctx.bdd.support(d_node))):
            with self._step("emit-lut"):
                bind(ctx.emit_lut(d_node, cache))
            return
        (d_sig,) = self.map_vector([d_node], cache, depth + 1)
        with self._step("compose"):
            bind(d_sig)

    def _shannon(self, f: int, cache: dict[int, str], depth: int) -> str:
        """Fallback: f = x ? f1 : f0 with a 3-input mux LUT."""
        ctx = self.context
        bdd = ctx.bdd

        # split on the variable minimizing the larger cofactor support
        def split_cost(lvl: int) -> tuple[int, int]:
            lo_ = bdd.cofactor(f, lvl, False)
            hi_ = bdd.cofactor(f, lvl, True)
            a, b2 = len(bdd.support(lo_)), len(bdd.support(hi_))
            return (max(a, b2), a + b2)

        with self._step("shannon-split"):
            lvl = min(sorted(bdd.support(f)), key=split_cost)
            lo = bdd.cofactor(f, lvl, False)
            hi = bdd.cofactor(f, lvl, True)
        lo_sig, hi_sig = self.map_vector([lo, hi], cache, depth + 1)
        with self._step("compose"):
            observe.add("shannon_splits")
            name = ctx.lut.fresh_name("M")
            # mux(s, lo, hi): fanins [sel, lo, hi]
            ctx.lut.add_node(
                name,
                [ctx.signal_of_level[lvl], lo_sig, hi_sig],
                Sop.from_strings(3, ["01-", "1-1"]),  # ~s&lo | s&hi
            )
        return name
