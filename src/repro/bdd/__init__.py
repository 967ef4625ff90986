"""Reduced Ordered Binary Decision Diagrams (ROBDDs).

This package is a self-contained BDD implementation built for the IMODEC
reproduction.  It provides:

- :class:`~repro.bdd.manager.BDD` -- the node manager (unique table, ITE
  with a computed table, quantification, composition, satisfiability
  services).
- :class:`~repro.bdd.function.Function` -- an operator-overloaded handle that
  pairs a node id with its manager, so client code can write ``f & g | ~h``.
- :mod:`~repro.bdd.satcount` -- model counting over explicit variable scopes.
- :mod:`~repro.bdd.dump` -- Graphviz/dot export for debugging.

All algorithms in :mod:`repro.imodec` operate on this package; no external
BDD library is required.
"""

from repro.bdd.function import Function
from repro.bdd.manager import BDD

__all__ = ["BDD", "Function"]
