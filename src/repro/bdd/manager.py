"""ROBDD node manager with complement (negated) edges.

The manager owns every node and guarantees canonicity: two *edges* are equal
if and only if the Boolean functions they root are equal.  An edge is an
integer ``(node_index << 1) | polarity``: the low bit is the complement
attribute, so negation is a single XOR (``apply_not`` is O(1)) and a function
and its complement share the entire node subgraph.

There is a single terminal node (index 0) whose base function is constant
false; the edge ``0`` is therefore the false function and the complemented
edge ``1`` is true.  The module-level :data:`FALSE` / :data:`TRUE` constants
keep the same numeric values as the pre-complement-edge engine, so client
code comparing against them is unaffected.

Canonical polarity rule: the *low* (else) edge of every stored node is
regular (uncomplemented).  When a reduction produces a complemented low edge,
the node is stored with both children complemented and the complement is
pushed to the incoming edge -- this picks exactly one of the two equivalent
representations of every function and makes the unique table collision-free
under negation.  See ``docs/ENGINE.md`` for the full invariant catalogue.

Boolean operations run through specialized iterative apply kernels (AND and
XOR; OR/XNOR/IMPLIES are O(1) De Morgan wrappers) instead of the generic
``ite``.  All memoization lives in a single size-bounded operation cache with
hit/miss/eviction counters (:meth:`BDD.cache_stats`); when the cache exceeds
``cache_limit`` entries the oldest half is dropped (insertion-order FIFO), so
long synthesis runs need no manual cache management.  (The historical
``maybe_clear_caches`` pressure valve is gone; size the cache with the
``cache_limit`` constructor argument and monitor it with ``cache_stats()``.)

The public API works on raw integer edges (historically called "node ids";
the terms are used interchangeably below).  Most client code should use
:class:`repro.bdd.function.Function`, which wraps edges with operator
overloading; the manager methods remain available for performance-critical
inner loops (everything in :mod:`repro.imodec` uses them directly).

Variables are identified by *level* (an integer, 0 = topmost in the order)
and optionally carry a name.  The variable order is the creation order.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

#: Sentinel level of the terminal node; larger than any variable level.
TERMINAL_LEVEL = 1 << 30

#: Edge of the constant-false function (terminal node, regular polarity).
FALSE = 0
#: Edge of the constant-true function (terminal node, complemented).
TRUE = 1

#: Default bound on the unified operation cache (entries).
DEFAULT_CACHE_LIMIT = 1 << 21

# Operation tags of the unified cache.  Keys are tuples whose first element
# is one of these, so every operation shares one bounded table.
_OP_AND = 0
_OP_XOR = 1
_OP_ITE = 2
_OP_RESTRICT = 3
_OP_EXISTS = 4
_OP_COMPOSE = 5

#: Bound on the per-root support memo (entries); cleared wholesale when hit.
_SUPPORT_CACHE_LIMIT = 1 << 17

# Cached row masks for truth-table construction: _row_mask(n, j) has bit r
# set iff bit j of the row index r is set, for tables of 2**n rows.
_ROW_MASKS: dict[tuple[int, int], int] = {}


def row_mask(n: int, j: int) -> int:
    """Mask over ``2**n`` table rows selecting rows whose bit ``j`` is set.

    Shared by :meth:`BDD.to_truth_bits` and the truth-table scoring fast path
    in :mod:`repro.partitioning.kernel`.
    """
    mask = _ROW_MASKS.get((n, j))
    if mask is None:
        half = 1 << j
        mask = ((1 << half) - 1) << half
        width = half * 2
        total = 1 << n
        while width < total:
            mask |= mask << width
            width *= 2
        _ROW_MASKS[(n, j)] = mask
    return mask


class BDD:
    """A reduced ordered BDD manager with complement edges.

    Example::

        bdd = BDD()
        x, y = bdd.add_var("x"), bdd.add_var("y")
        f = bdd.apply_and(x, bdd.apply_not(y))   # x & ~y
        assert bdd.eval(f, {0: True, 1: False})
    """

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT) -> None:
        # Parallel node arrays indexed by node index (edge >> 1); slot 0 is
        # the terminal.  Its children point at itself so edge traversal of a
        # terminal is a fixed point, as in the pre-complement-edge engine.
        self._level: list[int] = [TERMINAL_LEVEL]
        self._low: list[int] = [0]
        self._high: list[int] = [0]
        # (level, low, high) -> node index; low is always a regular edge.
        self._unique: dict[tuple[int, int, int], int] = {}
        # Unified bounded operation cache; see _evict().
        self._ops: dict = {}
        self._cache_limit = cache_limit
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # node index -> frozenset of support levels, for queried roots.
        self._support_cache: dict[int, frozenset[int]] = {}
        self._var_names: list[str] = []
        self._name_to_level: dict[str, int] = {}

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    def add_var(self, name: str | None = None) -> int:
        """Create a new variable at the bottom of the order.

        Returns the edge of the positive literal.  ``name`` defaults to
        ``v<level>``.
        """
        level = len(self._var_names)
        if name is None:
            name = f"v{level}"
        if name in self._name_to_level:
            raise ValueError(f"variable name {name!r} already exists")
        self._var_names.append(name)
        self._name_to_level[name] = level
        return self._mk(level, FALSE, TRUE)

    def add_vars(self, count: int, prefix: str = "v") -> list[int]:
        """Create ``count`` fresh variables named ``<prefix>0..``; return literals."""
        start = len(self._var_names)
        return [self.add_var(f"{prefix}{start + i}") for i in range(count)]

    @property
    def num_vars(self) -> int:
        """Number of variables declared in this manager."""
        return len(self._var_names)

    def var(self, level: int) -> int:
        """Edge of the positive literal of the variable at ``level``."""
        self._check_level(level)
        return self._mk(level, FALSE, TRUE)

    def nvar(self, level: int) -> int:
        """Edge of the negative literal of the variable at ``level``."""
        self._check_level(level)
        return self._mk(level, TRUE, FALSE)

    def literal(self, level: int, positive: bool) -> int:
        """Positive or negative literal of ``level``."""
        return self.var(level) if positive else self.nvar(level)

    def var_name(self, level: int) -> str:
        """Name of the variable at ``level``."""
        self._check_level(level)
        return self._var_names[level]

    def level_of(self, name: str) -> int:
        """Level of the variable called ``name``."""
        return self._name_to_level[name]

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self._var_names):
            raise ValueError(f"unknown variable level {level}")

    # ------------------------------------------------------------------
    # node construction and inspection
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the edge for ``(level, low, high)``.

        Applies the reduction rule (equal children collapse) and the
        canonical polarity rule (stored low edges are regular; a complemented
        low pushes the complement to the returned edge).
        """
        if low == high:
            return low
        if low & 1:
            key = (level, low ^ 1, high ^ 1)
            node = self._unique.get(key)
            if node is None:
                node = len(self._level)
                self._level.append(level)
                self._low.append(low ^ 1)
                self._high.append(high ^ 1)
                self._unique[key] = node
            return (node << 1) | 1
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node << 1

    def mk(self, level: int, low: int, high: int) -> int:
        """Public canonical find-or-create (the transfer/import seam).

        :mod:`repro.bdd.transfer` materializes nodes through it without
        reaching into the manager's internals.
        """
        return self._mk(level, low, high)

    def level(self, u: int) -> int:
        """Level of edge ``u`` (``TERMINAL_LEVEL`` for constants)."""
        return self._level[u >> 1]

    def low(self, u: int) -> int:
        """Else-child (variable = 0) of edge ``u``, complement propagated."""
        return self._low[u >> 1] ^ (u & 1)

    def high(self, u: int) -> int:
        """Then-child (variable = 1) of edge ``u``, complement propagated."""
        return self._high[u >> 1] ^ (u & 1)

    def is_terminal(self, u: int) -> bool:
        """True iff ``u`` is one of the constants."""
        return u <= 1

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ever allocated (including the terminal)."""
        return len(self._level)

    def size(self, u: int) -> int:
        """Number of distinct functions (edges) reachable from ``u``.

        This counts the nodes of the equivalent complement-free ROBDD
        (including terminals), so it is directly comparable with sizes
        reported by engines without complement edges.
        """
        lows = self._low
        highs = self._high
        seen: set[int] = set()
        add = seen.add
        stack = [u]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            add(v)
            i = v >> 1
            if i:
                c = v & 1
                stack.append(lows[i] ^ c)
                stack.append(highs[i] ^ c)
        return len(seen)

    # ------------------------------------------------------------------
    # the unified bounded operation cache
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop all memoization tables (nodes are kept)."""
        self._ops.clear()
        self._support_cache.clear()

    def cache_stats(self) -> dict:
        """Counters of the unified operation cache (and the node count)."""
        total = self._hits + self._misses
        return {
            "entries": len(self._ops),
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self._hits / total if total else 0.0,
            "evictions": self._evictions,
            "nodes": len(self._level),
        }

    def _evict(self) -> None:
        """Drop the oldest half of the operation cache (insertion order)."""
        ops = self._ops
        drop = len(ops) // 2
        if drop:
            for key in list(islice(iter(ops), drop)):
                del ops[key]
            self._evictions += 1

    def _maybe_evict(self) -> None:
        # A single operation can insert many entries before this runs, so
        # keep halving until the bound actually holds.
        while len(self._ops) > self._cache_limit:
            self._evict()

    # ------------------------------------------------------------------
    # core Boolean operations: specialized apply kernels
    # ------------------------------------------------------------------

    def apply_not(self, f: int) -> int:
        """Complement of ``f`` -- a single XOR on the complement attribute."""
        return f ^ 1

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction ``f & g`` (iterative apply kernel)."""
        # Trivial cases that need no machinery.
        if f == g:
            return f
        if f ^ g == 1:
            return FALSE
        if f == TRUE:
            return g
        if g == TRUE:
            return f
        if f == FALSE or g == FALSE:
            return FALSE

        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        ops = self._ops
        hits = 0
        misses = 0
        # Explicit-stack apply: mode 0 expands a (f, g) subproblem, mode 1
        # combines the two child results into a node and fills the cache.
        tasks: list[tuple] = [(0, f, g)]
        pop = tasks.pop
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            mode, a, b = pop()
            if mode:
                # a = cache key, b = branching level.
                r1 = rpop()
                r0 = rpop()
                if r0 == r1:
                    res = r0
                elif r0 & 1:
                    key2 = (b, r0 ^ 1, r1 ^ 1)
                    node = unique.get(key2)
                    if node is None:
                        node = len(levels)
                        levels.append(b)
                        lows.append(r0 ^ 1)
                        highs.append(r1 ^ 1)
                        unique[key2] = node
                    res = (node << 1) | 1
                else:
                    key2 = (b, r0, r1)
                    node = unique.get(key2)
                    if node is None:
                        node = len(levels)
                        levels.append(b)
                        lows.append(r0)
                        highs.append(r1)
                        unique[key2] = node
                    res = node << 1
                ops[a] = res
                rpush(res)
                continue
            if a == b:
                rpush(a)
                continue
            if a ^ b == 1 or a == FALSE or b == FALSE:
                rpush(FALSE)
                continue
            if a == TRUE:
                rpush(b)
                continue
            if b == TRUE:
                rpush(a)
                continue
            if a > b:
                a, b = b, a
            key = (_OP_AND, a, b)
            res = ops.get(key)
            if res is not None:
                hits += 1
                rpush(res)
                continue
            misses += 1
            ia = a >> 1
            ib = b >> 1
            la = levels[ia]
            lb = levels[ib]
            if la <= lb:
                ca = a & 1
                a0 = lows[ia] ^ ca
                a1 = highs[ia] ^ ca
                top = la
            else:
                a0 = a1 = a
                top = lb
            if lb <= la:
                cb = b & 1
                b0 = lows[ib] ^ cb
                b1 = highs[ib] ^ cb
            else:
                b0 = b1 = b
            push((1, key, top))
            push((0, a1, b1))
            push((0, a0, b0))
        self._hits += hits
        self._misses += misses
        self._maybe_evict()
        return results[0]

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or ``f ^ g`` (iterative apply kernel).

        Complement attributes factor out of XOR entirely
        (``(F^a) xor (G^b) == (F xor G) ^ (a^b)``), so the kernel recurses
        and caches on polarity-stripped edges only -- every cache entry
        serves four polarity combinations.
        """
        pol = (f ^ g) & 1
        a = f & -2
        b = g & -2
        if a == b:
            return pol
        if a == FALSE:
            return b ^ pol
        if b == FALSE:
            return a ^ pol

        levels = self._level
        lows = self._low
        highs = self._high
        unique = self._unique
        ops = self._ops
        hits = 0
        misses = 0
        tasks: list[tuple] = [(0, a, b, pol)]
        pop = tasks.pop
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            mode, a, b, pol = pop()
            if mode:
                # a = cache key, b = branching level.
                r1 = rpop()
                r0 = rpop()
                if r0 == r1:
                    res = r0
                elif r0 & 1:
                    key2 = (b, r0 ^ 1, r1 ^ 1)
                    node = unique.get(key2)
                    if node is None:
                        node = len(levels)
                        levels.append(b)
                        lows.append(r0 ^ 1)
                        highs.append(r1 ^ 1)
                        unique[key2] = node
                    res = (node << 1) | 1
                else:
                    key2 = (b, r0, r1)
                    node = unique.get(key2)
                    if node is None:
                        node = len(levels)
                        levels.append(b)
                        lows.append(r0)
                        highs.append(r1)
                        unique[key2] = node
                    res = node << 1
                ops[a] = res
                rpush(res ^ pol)
                continue
            pol ^= (a ^ b) & 1
            a &= -2
            b &= -2
            if a == b:
                rpush(pol)
                continue
            if a == FALSE:
                rpush(b ^ pol)
                continue
            if b == FALSE:
                rpush(a ^ pol)
                continue
            if a > b:
                a, b = b, a
            key = (_OP_XOR, a, b)
            res = ops.get(key)
            if res is not None:
                hits += 1
                rpush(res ^ pol)
                continue
            misses += 1
            ia = a >> 1
            ib = b >> 1
            la = levels[ia]
            lb = levels[ib]
            if la <= lb:
                a0 = lows[ia]
                a1 = highs[ia]
                top = la
            else:
                a0 = a1 = a
                top = lb
            if lb <= la:
                b0 = lows[ib]
                b1 = highs[ib]
            else:
                b0 = b1 = b
            push((1, key, top, pol))
            push((0, a1, b1, 0))
            push((0, a0, b0, 0))
        self._hits += hits
        self._misses += misses
        self._maybe_evict()
        return results[0]

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction ``f | g`` -- De Morgan over the AND kernel."""
        return self.apply_and(f ^ 1, g ^ 1) ^ 1

    def apply_xnor(self, f: int, g: int) -> int:
        """Equivalence ``f == g`` as a function."""
        return self.apply_xor(f, g) ^ 1

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f -> g`` (``~(f & ~g)``)."""
        return self.apply_and(f, g ^ 1) ^ 1

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``.

        Constant and degenerate operand patterns dispatch to the specialized
        kernels; only genuine three-operand calls take the recursive path.
        """
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == (h ^ 1):
            return self.apply_xor(f, h)
        if h == FALSE:
            return self.apply_and(f, g)
        if h == TRUE:
            return self.apply_and(f, g ^ 1) ^ 1
        if g == FALSE:
            return self.apply_and(f ^ 1, h)
        if g == TRUE:
            return self.apply_and(f ^ 1, h ^ 1) ^ 1
        if f == g:
            return self.apply_and(f ^ 1, h ^ 1) ^ 1
        if f == (g ^ 1):
            return self.apply_and(f ^ 1, h)
        if f == h:
            return self.apply_and(f, g)
        if f == (h ^ 1):
            return self.apply_and(f, g ^ 1) ^ 1
        # Canonical triple: uncomplemented f (swap branches) and
        # uncomplemented g (push the complement to the result).
        if f & 1:
            f, g, h = f ^ 1, h, g
        pol = g & 1
        if pol:
            g ^= 1
            h ^= 1
        key = (_OP_ITE, f, g, h)
        res = self._ops.get(key)
        if res is not None:
            self._hits += 1
            return res ^ pol
        self._misses += 1
        levels = self._level
        top = min(levels[f >> 1], levels[g >> 1], levels[h >> 1])
        f0, f1 = self._cofactors_at(f, top)
        g0, g1 = self._cofactors_at(g, top)
        h0, h1 = self._cofactors_at(h, top)
        r0 = self.ite(f0, g0, h0)
        r1 = self.ite(f1, g1, h1)
        res = self._mk(top, r0, r1)
        self._ops[key] = res
        self._maybe_evict()
        return res ^ pol

    def _cofactors_at(self, u: int, level: int) -> tuple[int, int]:
        """(low, high) cofactors of ``u`` w.r.t. the variable at ``level``."""
        i = u >> 1
        if self._level[i] == level:
            c = u & 1
            return self._low[i] ^ c, self._high[i] ^ c
        return u, u

    def conjoin(self, fs: Iterable[int]) -> int:
        """Conjunction of an iterable of functions (TRUE for empty input)."""
        acc = TRUE
        for f in fs:
            acc = self.apply_and(acc, f)
            if acc == FALSE:
                return FALSE
        return acc

    def disjoin(self, fs: Iterable[int]) -> int:
        """Disjunction of an iterable of functions (FALSE for empty input)."""
        acc = FALSE
        for f in fs:
            acc = self.apply_or(acc, f)
            if acc == TRUE:
                return TRUE
        return acc

    # ------------------------------------------------------------------
    # cofactors, restriction, quantification, composition
    # ------------------------------------------------------------------

    def cofactor(self, u: int, level: int, value: bool) -> int:
        """Restrict variable ``level`` to ``value`` in ``u`` (Shannon cofactor)."""
        self._check_level(level)
        return self._restrict1(u, level, bool(value))

    def restrict(self, u: int, assignment: Mapping[int, bool]) -> int:
        """Simultaneously fix the variables in ``assignment`` (level -> value).

        Complement attributes factor out of restriction, so memoization is
        per base node: restricting ``f`` also warms the cache for ``~f``.
        """
        if not assignment:
            return u
        if len(assignment) == 1:
            ((lvl, val),) = assignment.items()
            return self._restrict1(u, lvl, bool(val))
        items = tuple(sorted(assignment.items()))
        max_level = items[-1][0]
        levels = self._level
        lows = self._low
        highs = self._high
        ops = self._ops

        def walk(v: int) -> int:
            i = v >> 1
            if i == 0:
                return v
            lvl = levels[i]
            if lvl > max_level:
                return v
            c = v & 1
            base = v ^ c
            key = (_OP_RESTRICT, base, items)
            res = ops.get(key)
            if res is None:
                if lvl in assignment:
                    res = walk(highs[i] if assignment[lvl] else lows[i])
                else:
                    r0 = walk(lows[i])
                    r1 = walk(highs[i])
                    res = self._mk(lvl, r0, r1)
                ops[key] = res
            return res ^ c

        result = walk(u)
        self._maybe_evict()
        return result

    def _restrict1(self, u: int, lvl: int, val: bool) -> int:
        """Single-variable restriction (the bound-set cofactoring hot path)."""
        levels = self._level
        lows = self._low
        highs = self._high
        ops = self._ops
        hits = 0
        misses = 0

        def walk(v: int) -> int:
            nonlocal hits, misses
            i = v >> 1
            if i == 0:
                return v
            node_level = levels[i]
            if node_level > lvl:
                return v
            c = v & 1
            if node_level == lvl:
                return (highs[i] if val else lows[i]) ^ c
            base = v ^ c
            key = (_OP_RESTRICT, base, lvl, val)
            res = ops.get(key)
            if res is not None:
                hits += 1
                return res ^ c
            misses += 1
            r0 = walk(lows[i])
            r1 = walk(highs[i])
            res = self._mk(node_level, r0, r1)
            ops[key] = res
            return res ^ c

        result = walk(u)
        self._hits += hits
        self._misses += misses
        self._maybe_evict()
        return result

    def exists(self, u: int, levels: Iterable[int]) -> int:
        """Existential quantification of ``levels`` from ``u``."""
        lvlset = frozenset(levels)
        if not lvlset:
            return u
        max_level = max(lvlset)
        node_levels = self._level
        lows = self._low
        highs = self._high
        ops = self._ops

        def walk(v: int) -> int:
            i = v >> 1
            if i == 0:
                return v
            lvl = node_levels[i]
            if lvl > max_level:
                return v
            key = (_OP_EXISTS, v, lvlset)
            res = ops.get(key)
            if res is not None:
                self._hits += 1
                return res
            self._misses += 1
            c = v & 1
            r0 = walk(lows[i] ^ c)
            r1 = walk(highs[i] ^ c)
            if lvl in lvlset:
                res = self.apply_and(r0 ^ 1, r1 ^ 1) ^ 1
            else:
                res = self._mk(lvl, r0, r1)
            ops[key] = res
            return res

        result = walk(u)
        self._maybe_evict()
        return result

    def forall(self, u: int, levels: Iterable[int]) -> int:
        """Universal quantification of ``levels`` from ``u``."""
        return self.exists(u ^ 1, levels) ^ 1

    def compose(self, u: int, substitution: Mapping[int, int]) -> int:
        """Simultaneous substitution of functions for variables.

        ``substitution`` maps variable levels to edges; every occurrence of
        the variable is replaced by the corresponding function.  The
        substitution is simultaneous (not iterated), implemented by the usual
        recursive ITE formulation.  Complement attributes factor out, so the
        memo is per base node.
        """
        if not substitution:
            return u
        items = tuple(sorted(substitution.items()))
        max_level = items[-1][0]
        node_levels = self._level
        lows = self._low
        highs = self._high
        ops = self._ops

        def walk(v: int) -> int:
            i = v >> 1
            if i == 0:
                return v
            lvl = node_levels[i]
            if lvl > max_level:
                return v
            c = v & 1
            base = v ^ c
            key = (_OP_COMPOSE, base, items)
            res = ops.get(key)
            if res is None:
                self._misses += 1
                r0 = walk(lows[i])
                r1 = walk(highs[i])
                branch = substitution.get(lvl)
                if branch is None:
                    branch = self.var(lvl)
                res = self.ite(branch, r1, r0)
                ops[key] = res
            else:
                self._hits += 1
            return res ^ c

        result = walk(u)
        self._maybe_evict()
        return result

    def rename(self, u: int, mapping: Mapping[int, int]) -> int:
        """Rename variables (level -> level) via composition with literals."""
        return self.compose(u, {old: self.var(new) for old, new in mapping.items()})

    # ------------------------------------------------------------------
    # evaluation, support, satisfiability
    # ------------------------------------------------------------------

    def eval(self, u: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate ``u`` under a (complete-enough) level -> value assignment."""
        levels = self._level
        lows = self._low
        highs = self._high
        while u > 1:
            i = u >> 1
            u = (highs[i] if assignment[levels[i]] else lows[i]) ^ (u & 1)
        return u == TRUE

    def support(self, u: int) -> frozenset[int]:
        """Set of variable levels ``u`` depends on.

        Complements do not change the support, so results are memoized per
        node index and shared between a function and its negation.  The
        returned frozenset is the cached object -- do not mutate-by-identity.
        """
        root = u >> 1
        if root == 0:
            return frozenset()
        cache = self._support_cache
        cached = cache.get(root)
        if cached is not None:
            return cached
        node_levels = self._level
        lows = self._low
        highs = self._high
        found: set[int] = set()
        seen = {0, root}
        stack = [root]
        add_level = found.add
        while stack:
            i = stack.pop()
            add_level(node_levels[i])
            lo = lows[i] >> 1
            hi = highs[i] >> 1
            if lo not in seen:
                seen.add(lo)
                stack.append(lo)
            if hi not in seen:
                seen.add(hi)
                stack.append(hi)
        result = frozenset(found)
        if len(cache) > _SUPPORT_CACHE_LIMIT:
            cache.clear()
        cache[root] = result
        return result

    def sat_one(self, u: int) -> dict[int, bool] | None:
        """One satisfying partial assignment (level -> value), or None.

        Variables not mentioned may take any value.
        """
        if u == FALSE:
            return None
        levels = self._level
        lows = self._low
        highs = self._high
        assignment: dict[int, bool] = {}
        while u > 1:
            i = u >> 1
            c = u & 1
            lo = lows[i] ^ c
            lvl = levels[i]
            if lo != FALSE:
                assignment[lvl] = False
                u = lo
            else:
                assignment[lvl] = True
                u = highs[i] ^ c
        return assignment

    def iter_sat(self, u: int, levels: Sequence[int]) -> Iterator[dict[int, bool]]:
        """Enumerate all total assignments over ``levels`` satisfying ``u``.

        ``levels`` must cover the support of ``u``; variables outside the
        support are expanded to both values (so the iterator yields exactly
        the minterms over the given scope).
        """
        order = sorted(levels)
        support = self.support(u)
        missing = support - set(order)
        if missing:
            raise ValueError(f"levels {sorted(missing)} in support but not in scope")

        def rec(v: int, idx: int, partial: dict[int, bool]) -> Iterator[dict[int, bool]]:
            if v == FALSE:
                return
            if idx == len(order):
                yield dict(partial)
                return
            lvl = order[idx]
            i = v >> 1
            for value in (False, True):
                if i and self._level[i] == lvl:
                    child = (self._high[i] if value else self._low[i]) ^ (v & 1)
                else:
                    child = v
                partial[lvl] = value
                yield from rec(child, idx + 1, partial)
            del partial[lvl]

        yield from rec(u, 0, {})

    # ------------------------------------------------------------------
    # building from other representations
    # ------------------------------------------------------------------

    def cube(self, literals: Mapping[int, bool]) -> int:
        """Conjunction of literals, given as level -> polarity."""
        result = TRUE
        for lvl in sorted(literals, reverse=True):
            result = self._mk(lvl, FALSE, result) if literals[lvl] else self._mk(lvl, result, FALSE)
        return result

    def minterm(self, levels: Sequence[int], values: Sequence[bool]) -> int:
        """Minterm over ``levels`` with the given ``values``."""
        if len(levels) != len(values):
            raise ValueError("levels and values must have equal length")
        return self.cube(dict(zip(levels, values)))

    def from_truth_bits(self, bits: int, levels: Sequence[int]) -> int:
        """Build a BDD from a bit-packed truth table over ``levels``.

        Bit ``i`` of ``bits`` is the function value for the input assignment
        where ``levels[j]`` takes bit ``j`` of ``i`` (LSB-first convention,
        matching :class:`repro.boolfunc.truthtable.TruthTable`).  The levels
        need not be sorted; the BDD is built respecting the manager's order.
        """
        n = len(levels)
        if len(set(levels)) != n:
            raise ValueError("duplicate levels")
        full = (1 << (1 << n)) - 1 if n else 1
        # (level, bit position in the row index), topmost level first.
        pairs = sorted((lvl, j) for j, lvl in enumerate(levels))
        return self._from_bits_rec(bits & full, pairs, n)

    def _from_bits_rec(self, bits: int, pairs: list[tuple[int, int]], n: int) -> int:
        if n == 0:
            return TRUE if bits & 1 else FALSE
        level, bitpos = pairs[0]
        # Split the rows on this variable's bit; renumber by dropping the bit.
        lo_bits = 0
        hi_bits = 0
        low_mask = (1 << bitpos) - 1
        for row in range(1 << n):
            if not (bits >> row) & 1:
                continue
            sub = ((row >> (bitpos + 1)) << bitpos) | (row & low_mask)
            if (row >> bitpos) & 1:
                hi_bits |= 1 << sub
            else:
                lo_bits |= 1 << sub
        rest = [(lvl, p - 1 if p > bitpos else p) for lvl, p in pairs[1:]]
        lo = self._from_bits_rec(lo_bits, rest, n - 1)
        hi = self._from_bits_rec(hi_bits, rest, n - 1)
        return self._mk(level, lo, hi)

    def to_truth_bits(self, u: int, levels: Sequence[int]) -> int:
        """Bit-packed truth table of ``u`` over ``levels`` (LSB-first rows).

        One memoized bottom-up walk over the distinct nodes of ``u``; each
        node contributes four big-integer operations on the packed table, so
        the cost is O(size(u)) word operations instead of the 2^n dict-driven
        evaluations of the naive per-row loop.
        """
        n = len(levels)
        support = self.support(u)
        missing = support - set(levels)
        if missing:
            raise ValueError(f"levels {sorted(missing)} in support but not in scope")
        if n == 0:
            return 1 if u == TRUE else 0
        full = (1 << (1 << n)) - 1
        bitpos = {lvl: j for j, lvl in enumerate(levels)}
        node_levels = self._level
        lows = self._low
        highs = self._high
        memo: dict[int, int] = {}

        def rec(e: int) -> int:
            i = e >> 1
            if i == 0:
                base = 0
            else:
                base = memo.get(i)
                if base is None:
                    lo = rec(lows[i])
                    hi = rec(highs[i])
                    mask = row_mask(n, bitpos[node_levels[i]])
                    base = (lo & (full ^ mask)) | (hi & mask)
                    memo[i] = base
            return (full ^ base) if e & 1 else base

        return rec(u)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BDD vars={self.num_vars} nodes={self.num_nodes}>"
