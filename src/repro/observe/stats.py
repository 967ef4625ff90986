"""Typed BDD-manager statistics shared by flow results and run reports.

Historically :class:`repro.mapping.flow.FlowResult` carried a bare ``dict``
of manager counters and every consumer (benchmark JSON emitters, run
reports, tests) re-spelled the key set by hand.  :class:`BddStats` is the
one schema: construct it from a manager with :meth:`BddStats.from_manager`,
serialize it with :meth:`BddStats.as_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BddStats:
    """Counters of one BDD manager's operation cache + node table.

    Attributes:
        nodes: total nodes ever allocated (including the terminal).
        entries: live memoized entries in the operation cache.
        hits / misses / evictions: lifetime cache counters (``evictions``
            counts the times the bounded cache dropped its oldest half).
        hit_rate: ``hits / (hits + misses)``, 0.0 before any lookup.
    """

    nodes: int = 0
    entries: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    hit_rate: float = 0.0

    @classmethod
    def from_manager(cls, bdd) -> "BddStats":
        """Snapshot a manager's counters."""
        return cls(**bdd.cache_stats())

    def as_dict(self) -> dict:
        """Plain-JSON form (the historical ``FlowResult.bdd_stats`` dict)."""
        return {
            "nodes": self.nodes,
            "entries": self.entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
