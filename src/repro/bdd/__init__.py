"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

This package is a self-contained BDD implementation built for the IMODEC
reproduction.  It provides:

- :class:`~repro.bdd.manager.BDD` -- the dict-backed node manager (unique
  table, ITE with a computed table, quantification, composition,
  satisfiability services); the reference ``object`` backend.
- :mod:`~repro.bdd.arena` -- the ``arena`` backend: the same manager API
  over flat numpy arrays with iterative integer kernels.
- :mod:`~repro.bdd.backend` -- the backend seam (:func:`make_manager`)
  through which flow code constructs managers by name.
- :class:`~repro.bdd.function.Function` -- an operator-overloaded handle that
  pairs a node id with its manager, so client code can write ``f & g | ~h``.
- :mod:`~repro.bdd.satcount` -- model counting over explicit variable scopes.
- :mod:`~repro.bdd.dump` -- Graphviz/dot export for debugging.

All algorithms in :mod:`repro.imodec` operate on this package; no external
BDD library is required (the arena backend additionally needs numpy).
"""

from repro.bdd.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    BackendUnavailable,
    make_manager,
)
from repro.bdd.function import Function
from repro.bdd.manager import BDD

__all__ = [
    "BACKEND_NAMES",
    "BDD",
    "BackendUnavailable",
    "DEFAULT_BACKEND",
    "Function",
    "make_manager",
]
