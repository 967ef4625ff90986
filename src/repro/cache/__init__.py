"""Persistent decomposition-result cache.

The cache is the program's one replay store: each output group is keyed
by its payload fingerprint (:func:`repro.engine.worker.payload_fingerprint`,
the exported functions and frontier names), so a re-run that reaches the
same subproblem -- in the same circuit or another one -- replays the
stored result instead of decomposing it again.  Every group is stored as
soon as it is merged, so an interrupted run resumes by running again
with the same cache.

Layers:

- :mod:`repro.cache.store` -- the persistent key/value store on stdlib
  ``sqlite3`` (WAL mode, every commit durable, schema-versioned,
  corruption degrades to misses).
- :mod:`repro.cache.group` -- the engine-facing :class:`GroupCache`:
  look up, verify every hit against the requested functions before using
  it, record fresh results.

See ``docs/CACHING.md`` for the key scheme and failure semantics.
"""

from repro.cache.group import GroupCache
from repro.cache.store import SCHEMA_VERSION, ResultStore, open_store

__all__ = ["GroupCache", "ResultStore", "SCHEMA_VERSION", "open_store"]
