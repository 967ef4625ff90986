"""Arena-based ROBDD backend: flat numpy node store, iterative integer kernels.

This is the second implementation of the BDD-manager seam
(:mod:`repro.bdd.backend`).  Where :class:`repro.bdd.manager.BDD` keeps its
node store in Python lists and memoizes through Python dicts, the
:class:`ArenaBDD` keeps *everything* in flat ``int64`` arrays:

- **node columns** ``var`` / ``lo`` / ``hi``, grown geometrically, indexed
  by node number (slot 0 is the terminal);
- a **unique table** as one open-addressing (linear-probe) ``int64`` array
  holding node numbers, rehashed at load factor 1/2;
- a **fixed-slot operation cache**: three parallel ``int64`` arrays
  (two packed key words and a result word) indexed by a hash of the
  operands -- colliding entries overwrite (counted as evictions), so the
  cache needs no eviction scans and its memory is constant.

Edges are integers ``(node << 1) | complement`` with the same canonical
polarity invariants as the object manager (stored low edges are regular;
``FALSE == 0``, ``TRUE == 1``), so the two backends produce structurally
identical diagrams and byte-identical downstream netlists -- only the raw
node numbers differ.

Every operation is **iterative over integer edges** -- the kernels walk
explicit stacks (scalar path) or level-bucketed frontiers (vectorized
path); no per-node Python objects are ever allocated.  Scalar kernels read
the columns through :class:`memoryview` mirrors and probe the shared
tables in place; when a single AND/XOR/restrict call exceeds
``scalar_budget`` cache misses it *bails out* to the breadth-first
vectorized kernel, which processes whole per-level frontiers with numpy
gathers, ``np.unique`` deduplication and batched find-or-create inserts.
The two paths share the unique table and the op cache, so work done before
a bailout is never wasted.  This keeps tiny operations at dict-engine
latency while large operations (the rot/C5315/des regime) run at a few
numpy calls per level instead of a few dict probes per node.

See ``docs/ENGINE.md`` ("Arena backend") for the layout and invariant
catalogue, and ``benchmarks/bench_bdd_ops.py`` for the object-vs-arena
microbenchmark comparison recorded in ``BENCH_bdd_ops.json``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.bdd.manager import FALSE, TERMINAL_LEVEL, TRUE, row_mask

#: Default operation-cache size target (slots; a power of two).
DEFAULT_CACHE_SLOTS = 1 << 18

#: Slots the operation cache starts with.  It doubles toward the target
#: as evictions accrue (one per slot), so a throwaway manager never pays
#: the multi-megabyte memset of a full-size cache up front.
_INITIAL_CACHE_SLOTS = 1 << 12

#: Cache-miss budget of one scalar kernel call before it bails out to the
#: breadth-first vectorized kernel (shared tables make the switch free).
#: Chosen near the crossover where per-level numpy batches beat per-node
#: Python probes (see BENCH_bdd_ops.json for the measured curves).
DEFAULT_SCALAR_BUDGET = 512

# Operation tags packed into the low bits of the first cache key word.
_OP_AND = 1
_OP_XOR = 2
_OP_ITE = 3
_OP_RESTRICT = 4

_M64 = (1 << 64) - 1
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xC2B2AE3D27D4EB4F
_C3 = 0x165667B19E3779F9
_U1 = np.uint64(_C1)
_U2 = np.uint64(_C2)
_U3 = np.uint64(_C3)
_U29 = np.uint64(29)

#: Bound on the per-root support memo (entries); cleared wholesale when hit.
_SUPPORT_CACHE_LIMIT = 1 << 17


def _pow2_at_least(n: int) -> int:
    """Smallest power of two >= max(n, 4)."""
    size = 4
    while size < n:
        size <<= 1
    return size


def _vhash2(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Vector hash of two int64 key columns (uint64 wraparound mix)."""
    h = k1.astype(np.uint64) * _U1 + k2.astype(np.uint64) * _U2
    return h ^ (h >> _U29)


def _vhash3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vector hash of three int64 columns (uint64 wraparound mix)."""
    h = (
        a.astype(np.uint64) * _U1
        + b.astype(np.uint64) * _U2
        + c.astype(np.uint64) * _U3
    )
    return h ^ (h >> _U29)


class ArenaBDD:
    """A reduced ordered BDD manager over a flat numpy arena.

    Drop-in replacement for :class:`repro.bdd.manager.BDD` behind the
    :mod:`repro.bdd.backend` seam::

        bdd = ArenaBDD()
        x, y = bdd.add_var("x"), bdd.add_var("y")
        f = bdd.apply_and(x, bdd.apply_not(y))   # x & ~y
        assert bdd.eval(f, {0: True, 1: False})

    ``cache_limit`` bounds the operation cache exactly like the object
    manager's constructor argument, except that here it is rounded to a
    power-of-two *slot-count target* of a direct-mapped cache rather than
    an eviction threshold of a dict.  The cache starts small and doubles
    toward the target as evictions accrue (see ``_maybe_grow_cache``).
    """

    backend_name = "arena"

    def __init__(
        self,
        cache_limit: int | None = None,
        *,
        table_bits: int = 12,
        scalar_budget: int = DEFAULT_SCALAR_BUDGET,
    ) -> None:
        """Create an empty arena.

        ``table_bits`` sizes the initial unique table (``2**table_bits``
        slots; it rehashes to double capacity at load factor 1/2) --
        lowering it is useful only to stress the rehash path in tests.
        """
        target = _pow2_at_least(min(cache_limit or DEFAULT_CACHE_SLOTS, 1 << 21))
        slots = min(target, _INITIAL_CACHE_SLOTS)
        cap = 1 << 10
        self._var = np.empty(cap, np.int64)
        self._lo = np.empty(cap, np.int64)
        self._hi = np.empty(cap, np.int64)
        self._var[0] = TERMINAL_LEVEL
        self._lo[0] = 0
        self._hi[0] = 0
        self._n = 1
        self._tbits = max(4, table_bits)
        self._utable = np.full(1 << self._tbits, -1, np.int64)
        self._cache_slots = slots
        self._cache_target = target
        self._grow_evictions = slots
        self._cmask = slots - 1
        self._ck1 = np.full(slots, -1, np.int64)
        self._ck2 = np.zeros(slots, np.int64)
        self._cres = np.zeros(slots, np.int64)
        self._refresh_views()
        self._scalar_budget = scalar_budget
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._growths = 0
        self._cache_growths = 0
        self._rehashes = 0
        self._scalar_ops = 0
        self._vector_ops = 0
        self._bailouts = 0
        self._support_cache: dict[int, frozenset[int]] = {}
        self._var_names: list[str] = []
        self._name_to_level: dict[str, int] = {}

    def _refresh_views(self) -> None:
        """Rebind the memoryview mirrors after any array reallocation."""
        self._v = memoryview(self._var)
        self._l = memoryview(self._lo)
        self._h = memoryview(self._hi)
        self._t = memoryview(self._utable)
        self._k1 = memoryview(self._ck1)
        self._k2 = memoryview(self._ck2)
        self._cr = memoryview(self._cres)

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
    # arena maintenance: growth, rehash
    # ------------------------------------------------------------------

    def _grow(self, need: int) -> None:
        """Double the node columns until they hold ``need`` nodes."""
        cap = len(self._var)
        while cap < need:
            cap <<= 1
        for name in ("_var", "_lo", "_hi"):
            old = getattr(self, name)
            new = np.empty(cap, np.int64)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)
        self._growths += 1
        self._refresh_views()

    def _rehash(self, need: int) -> None:
        """Replace the unique table with one sized for ``need`` live nodes."""
        while (need + 1) * 2 > (1 << self._tbits):
            self._tbits += 1
        size = 1 << self._tbits
        mask = np.uint64(size - 1)
        table = np.full(size, -1, np.int64)
        n = self._n
        if n > 1:
            idx = np.arange(1, n, dtype=np.int64)
            slot = (
                _vhash3(self._var[1:n], self._lo[1:n], self._hi[1:n]) & mask
            ).astype(np.int64)
            pend, pslot = idx, slot
            while pend.size:
                empty = table[pslot] == -1
                cand, cslot = pend[empty], pslot[empty]
                table[cslot] = cand
                won = table[cslot] == cand
                pend = np.concatenate([pend[~empty], cand[~won]])
                pslot = np.concatenate([pslot[~empty], cslot[~won]])
                pslot = (pslot + 1) & np.int64(size - 1)
        self._utable = table
        self._rehashes += 1
        self._refresh_views()

    # ------------------------------------------------------------------
    # node construction and inspection (scalar path)
    # ------------------------------------------------------------------

    def _lookup_insert(self, level: int, lo: int, hi: int) -> int:
        """Find-or-create the node ``(level, lo, hi)``; ``lo`` is regular."""
        tmask = (1 << self._tbits) - 1
        h = (level * _C1 + lo * _C2 + hi * _C3) & _M64
        slot = (h ^ (h >> 29)) & tmask
        t = self._t
        v, l, hh = self._v, self._l, self._h
        while True:
            node = t[slot]
            if node < 0:
                break
            if v[node] == level and l[node] == lo and hh[node] == hi:
                return node
            slot = (slot + 1) & tmask
        node = self._n
        if node == len(self._var):
            self._grow(node + 1)
            v, l, hh = self._v, self._l, self._h
        v[node] = level
        l[node] = lo
        hh[node] = hi
        self._n = node + 1
        self._t[slot] = node
        if (node + 2) * 2 > tmask + 1:
            self._rehash(node + 1)
        return node

    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the edge for ``(level, low, high)``.

        Applies the reduction rule (equal children collapse) and the
        canonical polarity rule (stored low edges are regular; a
        complemented low pushes the complement to the returned edge).
        """
        if low == high:
            return low
        c = low & 1
        return (self._lookup_insert(level, low ^ c, high ^ c) << 1) | c

    def mk(self, level: int, low: int, high: int) -> int:
        """Public canonical find-or-create (the transfer/import seam)."""
        return self._mk(level, low, high)

    def level(self, u: int) -> int:
        """Level of edge ``u`` (``TERMINAL_LEVEL`` for constants)."""
        return self._v[u >> 1]

    def low(self, u: int) -> int:
        """Else-child (variable = 0) of edge ``u``, complement propagated."""
        return self._l[u >> 1] ^ (u & 1)

    def high(self, u: int) -> int:
        """Then-child (variable = 1) of edge ``u``, complement propagated."""
        return self._h[u >> 1] ^ (u & 1)

    def is_terminal(self, u: int) -> bool:
        """True iff ``u`` is one of the constants."""
        return u <= 1

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ever allocated (including the terminal)."""
        return self._n

    def size(self, u: int) -> int:
        """Number of distinct functions (edges) reachable from ``u``."""
        lows = self._l
        highs = self._h
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

    def descendants(self, u: int) -> set[int]:
        """Set of edges reachable from ``u`` (including ``u`` and terminals)."""
        lows = self._l
        highs = self._h
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
        return seen

    # ------------------------------------------------------------------
    # the fixed-slot operation cache
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop all memoization tables (nodes are kept)."""
        self._ck1[:] = -1
        self._support_cache.clear()

    def cache_size(self) -> int:
        """Number of live entries in the fixed-slot operation cache."""
        return int(np.count_nonzero(self._ck1 >= 0))

    def cache_stats(self) -> dict:
        """Counters of the operation cache (and the node count).

        Same key set as :meth:`repro.bdd.manager.BDD.cache_stats`;
        ``evictions`` counts slot overwrites (the fixed-slot equivalent of
        dropping an entry).  Arena-specific counters live in
        :meth:`arena_stats`.
        """
        total = self._hits + self._misses
        return {
            "entries": self.cache_size(),
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": self._hits / total if total else 0.0,
            "evictions": self._evictions,
            "nodes": self._n,
        }

    def arena_stats(self) -> dict:
        """Arena-backend internals: store geometry and kernel dispatch.

        Folded into :class:`repro.observe.stats.BddStats` (and therefore
        into run reports) when this backend is active.
        """
        return {
            "capacity": len(self._var),
            "table_slots": 1 << self._tbits,
            "table_load": self._n / (1 << self._tbits),
            "cache_slots": self._cache_slots,
            "cache_occupancy": self.cache_size() / self._cache_slots,
            "cache_growths": self._cache_growths,
            "growths": self._growths,
            "rehashes": self._rehashes,
            "scalar_ops": self._scalar_ops,
            "vector_ops": self._vector_ops,
            "bailouts": self._bailouts,
        }

    def _cache_slot(self, k1: int, k2: int) -> int:
        h = (k1 * _C1 + k2 * _C2) & _M64
        return (h ^ (h >> 29)) & self._cmask

    def _cache_get(self, k1: int, k2: int) -> int | None:
        slot = self._cache_slot(k1, k2)
        if self._k1[slot] == k1 and self._k2[slot] == k2:
            self._hits += 1
            return self._cr[slot]
        self._misses += 1
        return None

    def _cache_put(self, k1: int, k2: int, res: int) -> None:
        slot = self._cache_slot(k1, k2)
        old = self._k1[slot]
        if old >= 0 and (old != k1 or self._k2[slot] != k2):
            self._evictions += 1
        self._k1[slot] = k1
        self._k2[slot] = k2
        self._cr[slot] = res
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()

    def _maybe_grow_cache(self) -> None:
        """Double the op cache once evictions show it is undersized.

        The cache starts tiny (``_INITIAL_CACHE_SLOTS``) so that the flood
        of short-lived managers a flow constructs never pays the multi-MB
        memset of a full-size cache; a manager doubles toward the
        ``cache_limit`` target only after accruing one eviction per current
        slot.  Live entries are rehashed into the doubled arrays (scatter
        collisions overwrite, as always for a direct-mapped cache).
        Kernels still holding the old arrays through captured views keep
        writing into them safely; those writes are simply lost to future
        lookups, which every read survives because it key-verifies.
        """
        if self._cache_slots >= self._cache_target:
            self._grow_evictions = _M64  # never again
            return
        old_k1, old_k2, old_r = self._ck1, self._ck2, self._cres
        slots = self._cache_slots * 2
        self._cache_slots = slots
        self._cmask = slots - 1
        self._ck1 = np.full(slots, -1, np.int64)
        self._ck2 = np.zeros(slots, np.int64)
        self._cres = np.zeros(slots, np.int64)
        live = old_k1 >= 0
        if live.any():
            k1v = old_k1[live]
            k2v = old_k2[live]
            slotv = (_vhash2(k1v, k2v) & np.uint64(self._cmask)).astype(np.int64)
            self._ck1[slotv] = k1v
            self._ck2[slotv] = k2v
            self._cres[slotv] = old_r[live]
        self._refresh_views()
        self._cache_growths += 1
        self._grow_evictions = self._evictions + slots

    # ------------------------------------------------------------------
    # vectorized find-or-create
    # ------------------------------------------------------------------

    def _find_or_create_vec(
        self, var: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Vector find-or-create of regular-low triples; returns node numbers."""
        m = len(var)
        if (self._n + m + 1) * 2 > (1 << self._tbits):
            self._rehash(self._n + m)
        size = 1 << self._tbits
        mask = np.uint64(size - 1)
        imask = np.int64(size - 1)
        slot = (_vhash3(var, lo, hi) & mask).astype(np.int64)
        out = np.empty(m, np.int64)
        pend = np.arange(m)
        table = self._utable
        while pend.size:
            s = slot[pend]
            t = table[s]
            empty = t == -1
            hit = np.zeros(len(pend), np.bool_)
            occ = ~empty
            if occ.any():
                to = t[occ]
                hit_occ = (
                    (self._var[to] == var[pend[occ]])
                    & (self._lo[to] == lo[pend[occ]])
                    & (self._hi[to] == hi[pend[occ]])
                )
                hit[occ] = hit_occ
                out[pend[occ][hit_occ]] = to[hit_occ]
            claim = pend[empty]
            if claim.size:
                cslot = s[empty]
                need = self._n + claim.size
                if need > len(self._var):
                    self._grow(need)
                ids = self._n + np.arange(claim.size, dtype=np.int64)
                table[cslot] = ids
                won = table[cslot] == ids
                nwin = int(np.count_nonzero(won))
                win_ids = self._n + np.arange(nwin, dtype=np.int64)
                self._var[win_ids] = var[claim[won]]
                self._lo[win_ids] = lo[claim[won]]
                self._hi[win_ids] = hi[claim[won]]
                table[cslot[won]] = win_ids
                self._n += nwin
                out[claim[won]] = win_ids
                # Probe-mismatched entries advance; claim *losers* re-probe
                # the same slot so a duplicate triple inserted this round is
                # found there next iteration instead of allocated twice.
                adv = pend[occ & ~hit]
                slot[adv] = (slot[adv] + 1) & imask
                pend = np.concatenate([adv, claim[~won]])
            else:
                pend = pend[occ & ~hit]
                slot[pend] = (slot[pend] + 1) & imask
        return out

    def _mk_vec(
        self, var: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Vector :meth:`_mk`: reduction + canonical polarity + find-or-create."""
        res = np.empty(len(var), np.int64)
        same = lo == hi
        res[same] = lo[same]
        act = ~same
        if act.any():
            var, lo, hi = var[act], lo[act], hi[act]
            pol = lo & 1
            lo = lo ^ pol
            hi = hi ^ pol
            if len(var) < 64:
                # Tiny batch: the insert loop handles duplicates itself.
                nodes = self._find_or_create_vec(var, lo, hi)
            else:
                # Exact two-step dedup: pack the child pair (edges < 2^31 by
                # the arena size assumption), then pair id with the level.
                pair = (lo << 32) | hi
                _, pid = np.unique(pair, return_inverse=True)
                triple = (var << 32) | pid
                _, first, inv = np.unique(
                    triple, return_index=True, return_inverse=True
                )
                nodes = self._find_or_create_vec(var[first], lo[first], hi[first])[inv]
            res[act] = (nodes << 1) | pol
        return res

    # ------------------------------------------------------------------
    # core Boolean operations: scalar kernels with vectorized bailout
    # ------------------------------------------------------------------

    def apply_not(self, f: int) -> int:
        """Complement of ``f`` -- a single XOR on the complement attribute."""
        return f ^ 1

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction ``f & g`` (iterative integer kernel)."""
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
        self._scalar_ops += 1
        budget = self._scalar_budget
        levels, lows, highs = self._v, self._l, self._h
        k1s, k2s, crs = self._k1, self._k2, self._cr
        cmask = self._cmask
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
                # a = packed key pair, b = branching level.
                r1 = rpop()
                r0 = rpop()
                if r0 == r1:
                    res = r0
                else:
                    c = r0 & 1
                    res = (self._lookup_insert(b, r0 ^ c, r1 ^ c) << 1) | c
                    levels, lows, highs = self._v, self._l, self._h
                k1, k2 = a
                slot = self._cache_slot(k1, k2)
                old = k1s[slot]
                if old >= 0 and (old != k1 or k2s[slot] != k2):
                    self._evictions += 1
                k1s[slot] = k1
                k2s[slot] = k2
                crs[slot] = res
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
            k1 = (a << 3) | _OP_AND
            k2 = b
            h = (k1 * _C1 + k2 * _C2) & _M64
            slot = (h ^ (h >> 29)) & cmask
            if k1s[slot] == k1 and k2s[slot] == k2:
                hits += 1
                rpush(crs[slot])
                continue
            misses += 1
            if misses > budget:
                self._hits += hits
                self._misses += misses
                self._bailouts += 1
                return self._apply_bin_vec(_OP_AND, f, g)
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
            push((1, (k1, k2), top))
            push((0, a1, b1))
            push((0, a0, b0))
        self._hits += hits
        self._misses += misses
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()
        return results[0]

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive or ``f ^ g`` (iterative integer kernel).

        Complement attributes factor out of XOR entirely, so the kernel
        recurses and caches on polarity-stripped edges only -- every cache
        entry serves four polarity combinations.
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
        self._scalar_ops += 1
        budget = self._scalar_budget
        levels, lows, highs = self._v, self._l, self._h
        k1s, k2s, crs = self._k1, self._k2, self._cr
        cmask = self._cmask
        hits = 0
        misses = 0
        root_a, root_b, root_pol = a, b, pol
        tasks: list[tuple] = [(0, a, b, pol)]
        pop = tasks.pop
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        rpop = results.pop
        while tasks:
            mode, a, b, p = pop()
            if mode:
                # a = packed key pair, b = branching level.
                r1 = rpop()
                r0 = rpop()
                if r0 == r1:
                    res = r0
                else:
                    c = r0 & 1
                    res = (self._lookup_insert(b, r0 ^ c, r1 ^ c) << 1) | c
                    levels, lows, highs = self._v, self._l, self._h
                k1, k2 = a
                slot = self._cache_slot(k1, k2)
                old = k1s[slot]
                if old >= 0 and (old != k1 or k2s[slot] != k2):
                    self._evictions += 1
                k1s[slot] = k1
                k2s[slot] = k2
                crs[slot] = res
                rpush(res ^ p)
                continue
            p ^= (a ^ b) & 1
            a &= -2
            b &= -2
            if a == b:
                rpush(p)
                continue
            if a == FALSE:
                rpush(b ^ p)
                continue
            if b == FALSE:
                rpush(a ^ p)
                continue
            if a > b:
                a, b = b, a
            k1 = (a << 3) | _OP_XOR
            k2 = b
            h = (k1 * _C1 + k2 * _C2) & _M64
            slot = (h ^ (h >> 29)) & cmask
            if k1s[slot] == k1 and k2s[slot] == k2:
                hits += 1
                rpush(crs[slot] ^ p)
                continue
            misses += 1
            if misses > budget:
                self._hits += hits
                self._misses += misses
                self._bailouts += 1
                return self._apply_bin_vec(_OP_XOR, root_a, root_b) ^ root_pol
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
            push((1, (k1, k2), top, p))
            push((0, a1, b1, 0))
            push((0, a0, b0, 0))
        self._hits += hits
        self._misses += misses
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()
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

    # ------------------------------------------------------------------
    # breadth-first vectorized binary apply
    # ------------------------------------------------------------------

    def _apply_bin_vec(self, op: int, f: int, g: int) -> int:
        """Level-synchronized vectorized apply of AND or XOR.

        Requests are packed pairs ``(a << 32) | b`` bucketed by their top
        level; the down-sweep expands whole frontiers (op-cache gather,
        cofactor gathers, trivial-case masks), the up-sweep rebuilds with
        batched find-or-create and scatters results into the op cache.
        For XOR the operands are polarity-stripped and each child records
        the complement factored out of its pair.
        """
        self._vector_ops += 1
        res = self._apply_bin_vec_many(
            op, np.array([f], np.int64), np.array([g], np.int64)
        )
        return int(res[0])

    def _route(
        self,
        op: int,
        x: np.ndarray,
        y: np.ndarray,
        buckets: dict[int, list[np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Classify child pairs: returns (key, pol, triv, top) arrays.

        ``triv >= 0`` is an immediate result edge; for the rest ``key``
        is the canonical packed request enqueued into ``buckets``, ``pol``
        the complement to apply to its eventual result, and ``top`` its
        branching level (meaningful at non-trivial positions only).
        """
        if op == _OP_XOR:
            pol = (x ^ y) & 1
            x = x & -2
            y = y & -2
        else:
            pol = np.zeros(len(x), np.int64)
        a = np.minimum(x, y)
        b = np.maximum(x, y)
        triv = np.full(len(a), -1, np.int64)
        if op == _OP_AND:
            m = a == b
            triv[m] = a[m]
            m = ((a ^ b) == 1) | (a == FALSE)
            triv[m] = FALSE
            m = (a == TRUE) & (triv == -1)
            triv[m] = b[m]
        else:
            m = a == b
            triv[m] = pol[m]
            m = (a == FALSE) & (triv == -1)
            triv[m] = b[m] ^ pol[m]
        key = (a << 32) | b
        need = triv == -1
        topf = np.zeros(len(a), np.int64)
        if need.any():
            ka = a[need]
            kb = b[need]
            top = np.minimum(self._var[ka >> 1], self._var[kb >> 1])
            topf[need] = top
            kk = key[need]
            for lvl in np.unique(top):
                sel = top == lvl
                buckets.setdefault(int(lvl), []).append(kk[sel])
        return key, pol, triv, topf

    def _apply_bin_vec_many(
        self, op: int, fs: np.ndarray, gs: np.ndarray
    ) -> np.ndarray:
        """Vectorized AND/XOR over aligned operand arrays (the BFS core)."""
        buckets: dict[int, list[np.ndarray]] = {}
        root = self._route(op, fs, gs, buckets)
        opk = np.int64(op)
        cmask = np.uint64(self._cmask)
        plan: list[tuple] = []
        while buckets:
            lvl = min(buckets)
            keys = np.unique(np.concatenate(buckets.pop(lvl)))
            ua = keys >> 32
            ub = keys & 0xFFFFFFFF
            k1 = (ua << 3) | opk
            slot = (_vhash2(k1, ub) & cmask).astype(np.int64)
            hit = (self._ck1[slot] == k1) & (self._ck2[slot] == ub)
            hit_res = np.where(hit, self._cres[slot], -1)
            self._hits += int(np.count_nonzero(hit))
            miss = ~hit
            self._misses += int(np.count_nonzero(miss))
            am, bm = ua[miss], ub[miss]
            ia, ib = am >> 1, bm >> 1
            va, vb = self._var[ia], self._var[ib]
            on_a = va <= vb
            on_b = vb <= va
            if op == _OP_AND:
                ca = (am & 1) * on_a
                cb = (bm & 1) * on_b
            else:
                ca = np.zeros(len(am), np.int64)
                cb = ca
            a0 = np.where(on_a, self._lo[ia] ^ ca, am)
            a1 = np.where(on_a, self._hi[ia] ^ ca, am)
            b0 = np.where(on_b, self._lo[ib] ^ cb, bm)
            b1 = np.where(on_b, self._hi[ib] ^ cb, bm)
            # Route both cofactor frontiers in one call (halves the
            # per-level numpy overhead); the up-sweep splits at len(a0).
            req = self._route(
                op, np.concatenate([a0, a1]), np.concatenate([b0, b1]), buckets
            )
            plan.append((lvl, keys, hit, hit_res, k1[miss], bm, slot[miss], req))
        resolved: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def gather(req: tuple) -> np.ndarray:
            key, pol, triv, topf = req
            out = triv.copy()
            need = triv == -1
            if need.any():
                kk = key[need]
                top = topf[need]
                sub = np.empty(len(kk), np.int64)
                for lvl in np.unique(top):
                    sel = top == lvl
                    rkeys, rres = resolved[int(lvl)]
                    sub[sel] = rres[np.searchsorted(rkeys, kk[sel])]
                out[need] = sub ^ pol[need]
            return out

        for lvl, keys, hit, hit_res, k1m, k2m, slotm, req in reversed(plan):
            both = gather(req)
            half = len(both) >> 1
            lo_res = both[:half]
            hi_res = both[half:]
            new = self._mk_vec(
                np.full(len(lo_res), lvl, np.int64), lo_res, hi_res
            )
            old = self._ck1[slotm]
            self._evictions += int(
                np.count_nonzero(
                    (old >= 0) & ((old != k1m) | (self._ck2[slotm] != k2m))
                )
            )
            self._ck1[slotm] = k1m
            self._ck2[slotm] = k2m
            self._cres[slotm] = new
            allres = np.empty(len(keys), np.int64)
            allres[hit] = hit_res[hit]
            allres[~hit] = new
            resolved[lvl] = (keys, allres)
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()
        return gather(root)

    # ------------------------------------------------------------------
    # if-then-else
    # ------------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``.

        Constant and degenerate operand patterns dispatch to the
        specialized kernels; only genuine three-operand calls take the
        recursive path.
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
        k1 = (f << 3) | _OP_ITE
        k2 = (g << 32) | h
        res = self._cache_get(k1, k2)
        if res is not None:
            return res ^ pol
        levels = self._v
        top = min(levels[f >> 1], levels[g >> 1], levels[h >> 1])
        f0, f1 = self._cofactors_at(f, top)
        g0, g1 = self._cofactors_at(g, top)
        h0, h1 = self._cofactors_at(h, top)
        r0 = self.ite(f0, g0, h0)
        r1 = self.ite(f1, g1, h1)
        res = self._mk(top, r0, r1)
        self._cache_put(k1, k2, res)
        return res ^ pol

    def _cofactors_at(self, u: int, level: int) -> tuple[int, int]:
        """(low, high) cofactors of ``u`` w.r.t. the variable at ``level``."""
        i = u >> 1
        if self._v[i] == level:
            c = u & 1
            return self._l[i] ^ c, self._h[i] ^ c
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

        Restriction to constants commutes, so the simultaneous restriction
        is computed as a fold of single-variable restrictions (each of
        which has both a scalar and a vectorized path).
        """
        for lvl in sorted(assignment):
            u = self._restrict1(u, lvl, bool(assignment[lvl]))
        return u

    def _restrict1(self, u: int, lvl: int, val: bool) -> int:
        """Single-variable restriction (the bound-set cofactoring hot path)."""
        i = u >> 1
        if i == 0 or self._v[i] > lvl:
            return u
        self._scalar_ops += 1
        budget = self._scalar_budget
        levels, lows, highs = self._v, self._l, self._h
        k1s, k2s, crs = self._k1, self._k2, self._cr
        cmask = self._cmask
        k2c = (lvl << 1) | val
        hits = 0
        misses = 0
        # mode 0 expands an edge, mode 1 rebuilds a node, mode 2 re-applies
        # a complement factored out of a mode-0 expansion.
        tasks: list[tuple] = [(0, u)]
        pop = tasks.pop
        push = tasks.append
        results: list[int] = []
        rpush = results.append
        rpop = results.pop
        bailed = False
        while tasks:
            mode, e = pop()
            if mode == 2:
                # Complement marker: the base edge's result is on the stack.
                rpush(rpop() ^ 1)
                continue
            if mode:
                r1 = rpop()
                r0 = rpop()
                i = e >> 1
                node_level = levels[i]
                if r0 == r1:
                    res = r0
                else:
                    c = r0 & 1
                    res = (self._lookup_insert(node_level, r0 ^ c, r1 ^ c) << 1) | c
                    levels, lows, highs = self._v, self._l, self._h
                k1 = (e << 3) | _OP_RESTRICT
                slot = self._cache_slot(k1, k2c)
                old = k1s[slot]
                if old >= 0 and (old != k1 or k2s[slot] != k2c):
                    self._evictions += 1
                k1s[slot] = k1
                k2s[slot] = k2c
                crs[slot] = res
                rpush(res)
                continue
            i = e >> 1
            if i == 0:
                rpush(e)
                continue
            node_level = levels[i]
            if node_level > lvl:
                rpush(e)
                continue
            c = e & 1
            base = e ^ c
            if node_level == lvl:
                rpush((highs[i] if val else lows[i]) ^ c)
                continue
            k1 = (base << 3) | _OP_RESTRICT
            h = (k1 * _C1 + k2c * _C2) & _M64
            slot = (h ^ (h >> 29)) & cmask
            if k1s[slot] == k1 and k2s[slot] == k2c:
                hits += 1
                rpush(crs[slot] ^ c)
                continue
            misses += 1
            if misses > budget:
                bailed = True
                break
            if c:
                # Complements factor out: solve the base edge, re-apply c.
                push((2, base))  # marker: apply complement to base result
                push((0, base))
                continue
            push((1, base))
            push((0, highs[i]))
            push((0, lows[i]))
        if bailed:
            self._hits += hits
            self._misses += misses
            self._bailouts += 1
            return self._restrict1_vec(u, lvl, val)
        self._hits += hits
        self._misses += misses
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()
        return results[0]

    def _restrict1_vec(self, u: int, lvl: int, val: bool) -> int:
        """Breadth-first vectorized single-variable restriction."""
        self._vector_ops += 1
        k2c = np.int64((lvl << 1) | val)
        cmask = np.uint64(self._cmask)
        buckets: dict[int, list[np.ndarray]] = {}
        chosen = self._hi if val else self._lo

        def route(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Split child edges into (base, pol, immediate-result)."""
            pol = e & 1
            base = e ^ pol
            i = base >> 1
            v = self._var[i]
            triv = np.full(len(e), -1, np.int64)
            m = (i == 0) | (v > lvl)
            triv[m] = e[m]
            at = (v == lvl) & ~m
            triv[at] = chosen[i[at]] ^ pol[at]
            need = triv == -1
            if need.any():
                nb = base[need]
                nv = v[need]
                for top in np.unique(nv):
                    sel = nv == top
                    buckets.setdefault(int(top), []).append(nb[sel])
            return base, pol, triv

        root_req = route(np.array([u], np.int64))
        plan: list[tuple] = []
        while buckets:
            top = min(buckets)
            bases = np.unique(np.concatenate(buckets.pop(top)))
            k1 = (bases << 3) | np.int64(_OP_RESTRICT)
            slot = (
                _vhash2(k1, np.full(len(k1), k2c, np.int64)) & cmask
            ).astype(np.int64)
            hit = (self._ck1[slot] == k1) & (self._ck2[slot] == k2c)
            hit_res = np.where(hit, self._cres[slot], -1)
            self._hits += int(np.count_nonzero(hit))
            miss = ~hit
            self._misses += int(np.count_nonzero(miss))
            bm = bases[miss]
            im = bm >> 1
            req = route(np.concatenate([self._lo[im], self._hi[im]]))
            plan.append((top, bases, hit, hit_res, k1[miss], slot[miss], req))
        resolved: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def gather(req: tuple) -> np.ndarray:
            base, pol, triv = req
            out = triv.copy()
            need = triv == -1
            if need.any():
                nb = base[need]
                nv = self._var[nb >> 1]
                sub = np.empty(len(nb), np.int64)
                for top in np.unique(nv):
                    sel = nv == top
                    rkeys, rres = resolved[int(top)]
                    sub[sel] = rres[np.searchsorted(rkeys, nb[sel])]
                out[need] = sub ^ pol[need]
            return out

        for top, bases, hit, hit_res, k1m, slotm, req in reversed(plan):
            both = gather(req)
            half = len(both) >> 1
            lo_res = both[:half]
            hi_res = both[half:]
            new = self._mk_vec(
                np.full(len(lo_res), top, np.int64), lo_res, hi_res
            )
            k2m = np.full(len(k1m), k2c, np.int64)
            old = self._ck1[slotm]
            self._evictions += int(
                np.count_nonzero(
                    (old >= 0) & ((old != k1m) | (self._ck2[slotm] != k2m))
                )
            )
            self._ck1[slotm] = k1m
            self._ck2[slotm] = k2m
            self._cres[slotm] = new
            allres = np.empty(len(bases), np.int64)
            allres[hit] = hit_res[hit]
            allres[~hit] = new
            resolved[top] = (bases, allres)
        if self._evictions >= self._grow_evictions:
            self._maybe_grow_cache()
        return int(gather(root_req)[0])

    def exists(self, u: int, levels: Iterable[int]) -> int:
        """Existential quantification of ``levels`` from ``u``.

        The walk memoizes per call; the OR combinations at quantified
        levels run through the (vectorizable) apply kernels.
        """
        lvlset = frozenset(levels)
        if not lvlset:
            return u
        max_level = max(lvlset)
        node_levels, lows, highs = self._v, self._l, self._h
        memo: dict[int, int] = {}

        def walk(v: int) -> int:
            i = v >> 1
            if i == 0:
                return v
            lvl = node_levels[i]
            if lvl > max_level:
                return v
            res = memo.get(v)
            if res is not None:
                return res
            c = v & 1
            r0 = walk(lows[i] ^ c)
            r1 = walk(highs[i] ^ c)
            if lvl in lvlset:
                res = self.apply_and(r0 ^ 1, r1 ^ 1) ^ 1
            else:
                res = self._mk(lvl, r0, r1)
            memo[v] = res
            return res

        return walk(u)

    def forall(self, u: int, levels: Iterable[int]) -> int:
        """Universal quantification of ``levels`` from ``u``."""
        return self.exists(u ^ 1, levels) ^ 1

    def compose(self, u: int, substitution: Mapping[int, int]) -> int:
        """Simultaneous substitution of functions for variables.

        Same recursive ITE formulation as the object backend; memoization
        is per call and per base node (complements factor out).
        """
        if not substitution:
            return u
        max_level = max(substitution)
        node_levels, lows, highs = self._v, self._l, self._h
        memo: dict[int, int] = {}

        def walk(v: int) -> int:
            i = v >> 1
            if i == 0:
                return v
            lvl = node_levels[i]
            if lvl > max_level:
                return v
            c = v & 1
            base = v ^ c
            res = memo.get(base)
            if res is None:
                r0 = walk(lows[i])
                r1 = walk(highs[i])
                branch = substitution.get(lvl)
                if branch is None:
                    branch = self.var(lvl)
                res = self.ite(branch, r1, r0)
                memo[base] = res
            return res ^ c

        return walk(u)

    def rename(self, u: int, mapping: Mapping[int, int]) -> int:
        """Rename variables (level -> level) via composition with literals."""
        return self.compose(u, {old: self.var(new) for old, new in mapping.items()})

    # ------------------------------------------------------------------
    # evaluation, support, satisfiability
    # ------------------------------------------------------------------

    def eval(self, u: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate ``u`` under a (complete-enough) level -> value assignment."""
        levels, lows, highs = self._v, self._l, self._h
        while u > 1:
            i = u >> 1
            u = (highs[i] if assignment[levels[i]] else lows[i]) ^ (u & 1)
        return u == TRUE

    def support(self, u: int) -> frozenset[int]:
        """Set of variable levels ``u`` depends on.

        Memoized per root node (complements do not change the support).
        The returned frozenset is the cached object -- do not
        mutate-by-identity.
        """
        root = u >> 1
        if root == 0:
            return frozenset()
        cache = self._support_cache
        cached = cache.get(root)
        if cached is not None:
            return cached
        node_levels, lows, highs = self._v, self._l, self._h
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
        """One satisfying partial assignment (level -> value), or None."""
        if u == FALSE:
            return None
        levels, lows, highs = self._v, self._l, self._h
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
        """Enumerate all total assignments over ``levels`` satisfying ``u``."""
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
                if i and self._v[i] == lvl:
                    child = (self._h[i] if value else self._l[i]) ^ (v & 1)
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

        Same row convention as the object backend (LSB-first, matching
        :class:`repro.boolfunc.truthtable.TruthTable`).
        """
        n = len(levels)
        if len(set(levels)) != n:
            raise ValueError("duplicate levels")
        full = (1 << (1 << n)) - 1 if n else 1
        pairs = sorted((lvl, j) for j, lvl in enumerate(levels))
        return self._from_bits_rec(bits & full, pairs, n)

    def _from_bits_rec(self, bits: int, pairs: list[tuple[int, int]], n: int) -> int:
        if n == 0:
            return TRUE if bits & 1 else FALSE
        level, bitpos = pairs[0]
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
        """Bit-packed truth table of ``u`` over ``levels`` (LSB-first rows)."""
        n = len(levels)
        support = self.support(u)
        missing = support - set(levels)
        if missing:
            raise ValueError(f"levels {sorted(missing)} in support but not in scope")
        if n == 0:
            return 1 if u == TRUE else 0
        full = (1 << (1 << n)) - 1
        bitpos = {lvl: j for j, lvl in enumerate(levels)}
        node_levels, lows, highs = self._v, self._l, self._h
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

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def build_expr(self, op: str, *operands: int) -> int:
        """Apply a named operator (``and/or/xor/xnor/not/implies``) to operands."""
        ops: dict[str, Callable[..., int]] = {
            "and": self.conjoin,
            "or": self.disjoin,
        }
        if op in ops:
            return ops[op](operands)
        if op == "not":
            (f,) = operands
            return self.apply_not(f)
        binary = {
            "xor": self.apply_xor,
            "xnor": self.apply_xnor,
            "implies": self.apply_implies,
        }
        if op in binary:
            f, g = operands
            return binary[op](f, g)
        raise ValueError(f"unknown operator {op!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArenaBDD vars={self.num_vars} nodes={self.num_nodes}>"
