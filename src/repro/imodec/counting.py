"""Counting assignable and preferable decomposition functions (Table 1).

The paper demonstrates the complexity reduction of the preferable-function
concept by counting, per output:

- ``# assign.`` -- the number of *assignable* functions d : {0,1}^b -> {0,1}
  w.r.t. the empty partial assignment.  These may split local classes
  arbitrarily, so the count is over all 2^(2^b) functions; it is computed
  exactly by a combinatorial DP over the local classes (each class is either
  entirely in the onset, entirely in the offset, or mixed, and only the
  per-side totals matter).
- ``# prefer.`` -- the number of *preferable* functions, i.e. assignable AND
  constructable.  This is the number of vertices of ``psi0 & psi1`` over
  the p z-variables (complements are counted, matching the paper's
  numbers, e.g. l = 5, p = 5 gives 30 = 2^5 - 2).

Counts are exact Python integers (the paper reports values up to ~2e48).
"""

from __future__ import annotations

from typing import Sequence

from repro.imodec.chi import chi_for_output
from repro.imodec.zspace import make_zspace


def count_assignable(class_sizes: Sequence[int], codewidth: int) -> int:
    """Number of assignable functions for one output, empty partial assignment.

    ``class_sizes`` are the vertex counts of the local classes;
    ``codewidth`` is ``c = ceil(ld l)``.  A function is assignable iff at
    most ``2^(c-1)`` classes intersect its onset and at most ``2^(c-1)``
    intersect its offset.
    """
    num_classes = len(class_sizes)
    if num_classes < 1:
        raise ValueError("need at least one class")
    if codewidth < 0:
        raise ValueError("codewidth must be non-negative")
    if codewidth == 0:
        # l == 1: every function keeps the single class in one block; only
        # the two constants avoid splitting... but with c = 0 no function may
        # be added at all, so by convention only d that induce no split
        # qualify.  The paper never tabulates this case; return 2 (constants).
        return 2
    limit = 1 << (codewidth - 1)
    # DP over classes; state = (#classes touching onset, #classes touching
    # offset), both capped at `limit` (states beyond are dead).
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for size in class_sizes:
        mixed_ways = (1 << size) - 2  # at least one vertex on each side
        new_states: dict[tuple[int, int], int] = {}
        for (on, off), ways in states.items():
            # class entirely in the offset
            if off + 1 <= limit:
                key = (on, off + 1)
                new_states[key] = new_states.get(key, 0) + ways
            # class entirely in the onset
            if on + 1 <= limit:
                key = (on + 1, off)
                new_states[key] = new_states.get(key, 0) + ways
            # class split across both sides
            if mixed_ways > 0 and on + 1 <= limit and off + 1 <= limit:
                key = (on + 1, off + 1)
                new_states[key] = new_states.get(key, 0) + ways * mixed_ways
        states = new_states
    return sum(states.values())


def count_preferable(
    classes_as_global_ids: Sequence[Sequence[int]],
    num_global_classes: int,
    codewidth: int,
) -> int:
    """Number of preferable functions for one output, empty partial assignment.

    ``classes_as_global_ids`` lists the global classes of each local class.
    Complementary functions are both counted (no ``~z_0`` normalization),
    matching Table 1 of the paper.
    """
    zspace = make_zspace(num_global_classes)
    if codewidth == 0:
        return 2
    chi = chi_for_output(
        zspace, [list(classes_as_global_ids)], codewidth, normalize=False
    )
    return zspace.count(chi)


def count_constructable(num_global_classes: int) -> int:
    """Upper bound used in Table 1's parentheses: 2^p."""
    return 1 << num_global_classes


def count_all_functions(bound_set_size: int) -> int:
    """Upper bound used in Table 1's parentheses: 2^(2^b)."""
    return 1 << (1 << bound_set_size)
