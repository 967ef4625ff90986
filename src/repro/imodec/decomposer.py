"""The IMODEC driver: iterative implicit multiple-output decomposition.

Implements the algorithm of Section 6 end-to-end:

1. compute the local compatibility partition of every output (BDD cofactor
   grouping) and the global partition (their product);
2. set up the z-space (one variable per global class; a bit set up to
   20 classes, a BDD above: :mod:`repro.imodec.zspace`);
3. repeat: implicitly compute ``chi_k(z)`` for every incomplete output,
   find a function preferable for a maximum number of outputs (Lmax),
   make it a partial assignment of all outputs whose chi contains it, and
   refine those outputs' partial partitions;
4. stop when every output holds ``c_k`` functions, then construct the
   composition functions ``g_k`` from the per-output codes.

The resulting decomposition is *non-strict*: compatible vertices may receive
different codes, which is exactly what enables sharing (Section 1's account
of Karp's non-strict decompositions, generalized to m outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import observe
from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.compat import class_cofactors, codewidth, cofactor_map
from repro.decompose.gfunc import build_g as build_g_node
from repro.decompose.partitions import Partition
from repro.imodec.chi import chi_for_output
from repro.imodec.globalpart import (
    constructable_table,
    global_partition,
    local_classes_as_global_ids,
    lower_bound_q,
)
from repro.imodec.lmax import TieBreak, lmax
from repro.imodec.zspace import make_zspace


# Historical home of DecompositionError; it now lives in repro.errors so
# every layer can raise it without import cycles.  Re-exported for
# compatibility with existing imports.
from repro.errors import DecompositionError  # noqa: E402,F401


@dataclass
class SharedFunction:
    """One decomposition function of the shared pool.

    Attributes:
        classes_on: global classes in the onset (the z-vertex, Example 4).
        table: the function over the bound set (LSB-first vertex indexing).
        node: the same function as a BDD node over the bound-set levels, in
            the caller's manager; None when the decomposition was built
            with ``build_g=False`` (a trial needs only the function count).
        users: output indices whose assignment includes this function.
    """

    classes_on: frozenset[int]
    table: TruthTable
    node: int | None
    users: list[int] = field(default_factory=list)


@dataclass
class MultiOutputDecomposition:
    """Result of decomposing a function vector f = (f_1 .. f_m).

    Each output ``k`` satisfies
    ``f_k(x, y) == g_k(d_{i}(x) for i in assignments[k], y)``.
    """

    bs_levels: list[int]
    fs_levels: list[int]
    local_partitions: list[Partition]
    global_part: Partition
    codewidths: list[int]
    d_pool: list[SharedFunction]
    assignments: list[list[int]]
    code_levels: list[list[int]]
    g_nodes: list[int]

    @property
    def num_outputs(self) -> int:
        return len(self.g_nodes)

    @property
    def num_global_classes(self) -> int:
        """p of the paper."""
        return self.global_part.num_blocks

    @property
    def num_functions(self) -> int:
        """q: total number of (shared) decomposition functions."""
        return len(self.d_pool)

    @property
    def num_functions_unshared(self) -> int:
        """sum of c_k: what per-output single-output decomposition would need."""
        return sum(self.codewidths)

    def lower_bound(self) -> int:
        """Property 1: ceil(ld p) <= q."""
        return lower_bound_q(self.num_global_classes)

    def lone_outputs(self) -> list[int]:
        """Outputs none of whose decomposition functions are shared.

        These gain nothing from the joint bound set (which may be worse
        than their own choice); the flow's peel heuristic re-emits them
        individually (:class:`repro.engine.policies.LadderPeelPolicy`).
        """
        return [
            k
            for k in range(self.num_outputs)
            if all(len(self.d_pool[i].users) <= 1 for i in self.assignments[k])
        ]

    def progressing_outputs(
        self, bdd: BDD, f_nodes: Sequence[int], bs: Sequence[int]
    ) -> list[int]:
        """Outputs whose codewidth beat their bound-set support.

        A progressing output genuinely shrank under the decomposition
        (c_k < |supp(f_k) ∩ BS|); the rest fall back to a Shannon split.
        This is the feasibility half of every technology target's
        candidate ranking (:meth:`repro.targets.base.TechTarget.candidate_key`).
        """
        bs_set = set(bs)
        return [
            k
            for k, f in enumerate(f_nodes)
            if self.codewidths[k] < len(bdd.support(f) & bs_set)
        ]

    def composition_inputs(
        self, bdd: BDD, f_nodes: Sequence[int], bs: Sequence[int]
    ) -> int:
        """Total inputs of the composition functions g_k.

        Each g_k reads its c_k code variables plus the free-set part of
        f_k's support; the sum is the cost half of a target's candidate
        ranking -- fewer composition inputs means cheaper g emission
        whatever the cell library.
        """
        bs_set = set(bs)
        return sum(
            self.codewidths[k] + len(bdd.support(f) - bs_set)
            for k, f in enumerate(f_nodes)
        )

    def verify(self, bdd: BDD, f_nodes: Sequence[int]) -> bool:
        """Exact check of every output by BDD composition (needs a
        decomposition built with ``build_g=True``)."""
        for k, f in enumerate(f_nodes):
            substitution = {
                lvl: self.d_pool[idx].node
                for lvl, idx in zip(self.code_levels[k], self.assignments[k])
            }
            if bdd.compose(self.g_nodes[k], substitution) != f:
                return False
        return True


def _blocks_key(blocks: list[list[frozenset[int]]]) -> tuple:
    return tuple(tuple(sorted(tuple(sorted(cls)) for cls in block)) for block in blocks)


def decompose_multi(
    bdd: BDD,
    f_nodes: Sequence[int],
    bs_levels: Sequence[int],
    fs_levels: Sequence[int],
    tie_break: TieBreak = "balanced",
    code_prefix: str = "w",
    build_g: bool = True,
    strict: bool = False,
    local_partitions: Sequence[Partition] | None = None,
    max_functions: int | None = None,
) -> MultiOutputDecomposition | None:
    """Decompose the multiple-output function given by ``f_nodes``.

    All outputs live in the shared manager ``bdd`` with supports inside
    ``bs_levels + fs_levels``.  New code variables for the ``g_k`` inputs are
    appended to the manager.  ``strict=True`` runs the one-code-per-class
    baseline (Karp's strict decomposition, the paper's refs [10, 11]); the
    non-strict default detects strictly more shared functions.

    Trial decompositions read only the pool size ``q``; three arguments
    save the work they do not read:

    - ``build_g=False`` skips the composition functions, their code
      variables and the d-function BDDs (``SharedFunction.node`` is None).
    - ``local_partitions`` are the outputs' local compatibility partitions
      over the vertices of ``bs_levels`` (Definition 1), e.g. from
      :meth:`repro.partitioning.kernel.BoundSetKernel.local_partitions`.
      Without them every output is cofactored at every bound-set vertex.
      With them and ``build_g=False`` the call adds nothing to ``bdd``;
      with ``build_g`` set, each output is restricted once per local class
      (:func:`repro.decompose.compat.class_cofactors`).
    - ``max_functions=L`` returns None as soon as ``q >= L`` is certain.
      At the start of every Lmax iteration
      ``q >= max(ceil(ld p), |pool| + max_k (c_k - |assigned_k|))``:
      Property 1, and each iteration adds one pool function and gives every
      output at most one.  So the call returns None exactly when the
      unbounded call's ``q`` is at least ``L``, and otherwise the identical
      decomposition (the iterations it runs are the same prefix).

    When a tracer is installed (:mod:`repro.observe`), the whole call is
    recorded under an ``imodec`` span with per-iteration Lmax counts, chi
    cache behaviour, z-space sizes, and pool growth.
    """
    with observe.span("imodec"):
        return _decompose_multi_impl(
            bdd, f_nodes, bs_levels, fs_levels,
            tie_break=tie_break, code_prefix=code_prefix, build_g=build_g,
            strict=strict, local_partitions=local_partitions,
            max_functions=max_functions,
        )


def _decompose_multi_impl(
    bdd: BDD,
    f_nodes: Sequence[int],
    bs_levels: Sequence[int],
    fs_levels: Sequence[int],
    tie_break: TieBreak,
    code_prefix: str,
    build_g: bool,
    strict: bool,
    local_partitions: Sequence[Partition] | None,
    max_functions: int | None,
) -> MultiOutputDecomposition | None:
    bs = list(bs_levels)
    fs = list(fs_levels)
    if set(bs) & set(fs):
        raise ValueError("bound and free sets must be disjoint")
    for f in f_nodes:
        extra = bdd.support(f) - set(bs) - set(fs)
        if extra:
            raise ValueError(f"support levels {sorted(extra)} outside bound+free sets")

    m = len(f_nodes)
    if m == 0:
        raise ValueError("need at least one output")

    cofactors: list[list[int]] = []
    if local_partitions is None:
        cofactors = [cofactor_map(bdd, f, bs) for f in f_nodes]
        local_parts = [Partition.from_keys(cof) for cof in cofactors]
    else:
        local_parts = list(local_partitions)
        if build_g:
            cofactors = [
                class_cofactors(bdd, f, bs, part)
                for f, part in zip(f_nodes, local_parts)
            ]
    global_part = global_partition(local_parts)
    p = global_part.num_blocks
    codewidths = [codewidth(part.num_blocks) for part in local_parts]
    floor_q = lower_bound_q(p)

    # Local classes expressed as sets of global class ids, per output.
    classes_by_output: list[list[frozenset[int]]] = [
        [frozenset(cls) for cls in local_classes_as_global_ids(global_part, part)]
        for part in local_parts
    ]

    zspace = make_zspace(p)

    # Per-output state: current partial partition as blocks of local-class
    # pieces.  A block is a list of frozensets of global ids (one per local
    # class intersecting the block).
    blocks: list[list[list[frozenset[int]]]] = [
        [list(classes_by_output[k])] for k in range(m)
    ]
    assigned: list[list[int]] = [[] for _ in range(m)]
    d_pool: list[SharedFunction] = []
    chi_cache: dict[tuple, int] = {}

    traced = observe.enabled()

    def chi_of(k: int) -> int:
        remaining = codewidths[k] - len(assigned[k])
        key = (k, remaining, _blocks_key(blocks[k]))
        node = chi_cache.get(key)
        if node is None:
            node = chi_for_output(
                zspace, blocks[k], remaining, normalize=True, strict=strict
            )
            chi_cache[key] = node
            if traced:
                observe.add("chi_computed")
                if not zspace.bitset:
                    observe.add("chi_nodes", zspace.bdd.size(node))
        elif traced:
            observe.add("chi_cache_hits")
        return node

    def record() -> None:
        if traced:
            observe.add("calls")
            observe.add("outputs", m)
            observe.add("global_classes", p)
            observe.add("pool_functions", len(d_pool))
            if zspace.bitset:
                observe.add("bitset_zspaces")
            else:
                observe.add("zspace_nodes", zspace.bdd.num_nodes)
            observe.gauge("max_global_classes", p)
            observe.gauge("max_pool_functions", len(d_pool))

    while True:
        observe.checkpoint()  # budget enforcement per fixpoint iteration
        active = [k for k in range(m) if len(assigned[k]) < codewidths[k]]
        if max_functions is not None:
            still_needed = max(
                (codewidths[k] - len(assigned[k]) for k in active), default=0
            )
            if max(floor_q, len(d_pool) + still_needed) >= max_functions:
                record()
                return None
        if not active:
            break
        observe.add("iterations")
        chis = [chi_of(k) for k in active]
        result = lmax(zspace, chis, tie_break=tie_break)
        if result.count == 0:
            raise DecompositionError(
                "no constructable function is assignable for any incomplete "
                "output; the partial-assignment invariant was violated"
            )
        classes_on = zspace.classes_from_vertex(result.vertex)
        table = constructable_table(classes_on, global_part)
        shared = SharedFunction(
            classes_on=classes_on,
            table=table,
            node=table.to_bdd(bdd, bs) if build_g else None,
        )
        pool_index = len(d_pool)
        d_pool.append(shared)

        for k, chi in zip(active, chis):
            if not zspace.contains(chi, result.vertex):
                continue
            shared.users.append(k)
            assigned[k].append(pool_index)
            # Refine the partial partition of output k by the new function.
            new_blocks: list[list[frozenset[int]]] = []
            for block in blocks[k]:
                on_side = [cls & classes_on for cls in block]
                off_side = [cls - classes_on for cls in block]
                on_side = [cls for cls in on_side if cls]
                off_side = [cls for cls in off_side if cls]
                if on_side:
                    new_blocks.append(on_side)
                if off_side:
                    new_blocks.append(off_side)
            blocks[k] = new_blocks
        if not shared.users:
            raise DecompositionError(
                "Lmax produced a vertex outside every active characteristic "
                "function; this indicates a bug in the layer computation"
            )
        observe.add("lmax_sharing", result.count)

    record()

    # Build the composition functions.
    code_levels: list[list[int]] = []
    g_nodes: list[int] = []
    if not build_g:
        return MultiOutputDecomposition(
            bs_levels=bs,
            fs_levels=fs,
            local_partitions=local_parts,
            global_part=global_part,
            codewidths=codewidths,
            d_pool=d_pool,
            assignments=assigned,
            code_levels=[[] for _ in range(m)],
            g_nodes=[],
        )
    for k in range(m):
        c_k = codewidths[k]
        levels_k: list[int] = []
        for i in range(c_k):
            lit = bdd.add_var(f"{code_prefix}{bdd.num_vars}_o{k}b{i}")
            levels_k.append(bdd.level(lit))
        code_levels.append(levels_k)

        num_vertices = 1 << len(bs)
        vertex_codes = []
        for x in range(num_vertices):
            code = 0
            for bit, idx in enumerate(assigned[k]):
                if d_pool[idx].table[x]:
                    code |= 1 << bit
            vertex_codes.append(code)
        g_nodes.append(build_g_node(bdd, levels_k, vertex_codes, cofactors[k]))

    return MultiOutputDecomposition(
        bs_levels=bs,
        fs_levels=fs,
        local_partitions=local_parts,
        global_part=global_part,
        codewidths=codewidths,
        d_pool=d_pool,
        assignments=assigned,
        code_levels=code_levels,
        g_nodes=g_nodes,
    )
