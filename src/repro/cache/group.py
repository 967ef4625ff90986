"""Engine-facing group cache: look up by payload fingerprint, verify, record.

One cache entry holds the mapped sub-network of one output group -- the
same portable :class:`repro.engine.worker.GroupResult` shape that crosses
the worker process boundary, serialized by
:func:`repro.engine.worker.result_to_json`.  It is keyed by the group's
:func:`repro.engine.worker.payload_fingerprint`, which covers the
exported DAG and the frontier signal names: a hit is the very subproblem
that produced the entry, so replaying it emits the bytes a fresh
decomposition would.  That is also how an interrupted run resumes: run
again with the same cache, and every group stored before the cut hits.

Soundness never rests on the fingerprint: the database is input from
outside the program, so every hit is **verified** -- the stored
sub-network is evaluated bottom-up as BDDs over the caller's manager and
compared against the requested functions (the same proof obligation as
:func:`repro.mapping.flow.verify_flow`, per group).  A mismatch (hash
collision, foreign corruption) counts as ``cache_rejects`` and degrades to
a miss.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import observe
from repro.bdd.manager import FALSE, TRUE
from repro.boolfunc.cube import Cube
from repro.boolfunc.sop import Sop
from repro.cache.store import ResultStore, open_store
from repro.engine.worker import (
    config_digest,
    result_from_json,
    result_to_json,
)
from repro.network.collapse import cover_function

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.engine.emitter import EmitContext
    from repro.engine.worker import GroupResult
    from repro.mapping.flow import FlowConfig

#: Counter names contributed to ``EngineStats`` (all start at zero).
COUNTERS = ("cache_hits", "cache_misses", "cache_stores", "cache_rejects")


class GroupCache:
    """Consults and feeds the persistent store for one engine's groups."""

    def __init__(self, store: ResultStore, digest: str, target: str) -> None:
        """Cache against ``store``, namespaced by ``digest`` and ``target``."""
        self.store = store
        self.digest = digest
        self.target = target
        self._counts: dict[str, int] = {name: 0 for name in COUNTERS}

    @classmethod
    def open(cls, path: str, config: "FlowConfig") -> "GroupCache":
        """Open the cache at ``path`` for runs under ``config``."""
        return cls(open_store(path), config_digest(config), config.target)

    def counters(self) -> dict[str, int]:
        """Snapshot of the hit/miss/store/reject counters."""
        return dict(self._counts)

    def _key(self, fingerprint: str) -> str:
        """Database key: config digest + technology target + fingerprint.

        The digest prefix keeps results produced under different
        decomposition settings (k, mode, policy caps...) apart -- the same
        group maps to different networks under different knobs.  The
        target name is *also* an explicit key component (although it is
        already part of the semantic digest): a result mapped for one
        technology must never serve a request for another, and the
        explicit component keeps that guarantee independent of what the
        digest happens to cover.
        """
        return f"{self.digest}:{self.target}:{fingerprint}"

    def lookup(
        self, ctx: "EmitContext", f_nodes: list[int], fingerprint: str
    ) -> "GroupResult | None":
        """The verified cached result for the group, or None (a miss)."""
        payload = self.store.get(self._key(fingerprint))
        if payload is not None:
            try:
                result = result_from_json(payload)
                verified = self._verify(ctx, f_nodes, result)
            except (KeyError, IndexError, TypeError, ValueError):
                verified = False
            if verified:
                self._counts["cache_hits"] += 1
                observe.add("cache_hits")
                return result
            self._counts["cache_rejects"] += 1
            observe.add("cache_rejects")
        self._counts["cache_misses"] += 1
        observe.add("cache_misses")
        return None

    def record(self, fingerprint: str, result: "GroupResult") -> None:
        """Store a freshly computed (verified) group result."""
        if self.store.put(self._key(fingerprint), result_to_json(result)):
            self._counts["cache_stores"] += 1
            observe.add("cache_stores")

    @staticmethod
    def _verify(
        ctx: "EmitContext", f_nodes: list[int], result: "GroupResult"
    ) -> bool:
        """Prove ``result`` computes exactly ``f_nodes`` on this manager.

        The sub-network is evaluated bottom-up as BDDs with
        :func:`repro.network.collapse.cover_function` (covers are in
        topological order by construction) and each output is compared
        against the requested root -- canonicity makes the equality a
        proof, exactly like :func:`repro.mapping.flow.verify_flow`.
        """
        bdd = ctx.bdd
        values: dict[str, int] = {}
        for level in set().union(*(bdd.support(f) for f in f_nodes)):
            values[ctx.signal_of_level[level]] = bdd.var(level)
        for spec in result.nodes:
            if spec.constant is not None:
                values[spec.name] = TRUE if spec.constant else FALSE
                continue
            fanin_fns = []
            for fanin in spec.fanins:
                fn = values.get(fanin)
                if fn is None:
                    return False
                fanin_fns.append(fn)
            cover = Sop(
                spec.num_vars,
                [Cube(spec.num_vars, care, value) for care, value in spec.cubes],
            )
            values[spec.name] = cover_function(bdd, cover, fanin_fns)
        if len(result.outputs) != len(f_nodes):
            return False
        for sig, want in zip(result.outputs, f_nodes):
            got = values.get(sig)
            if got is None or got != want:
                return False
        return True
