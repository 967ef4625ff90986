"""Unit tests for the arena BDD backend and the backend seam."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.bdd.arena import ArenaBDD
from repro.bdd.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    BackendUnavailable,
    backend_of,
    make_manager,
)
from repro.bdd.manager import BDD, FALSE, TRUE
from repro.bdd.transfer import export_dag, import_dag
from repro.boolfunc.truthtable import TruthTable


def fresh(n=4, **kwargs):
    bdd = ArenaBDD(**kwargs)
    for i in range(n):
        bdd.add_var(f"x{i}")
    return bdd


class TestArenaBasics:
    def test_terminals_and_vars(self):
        bdd = fresh()
        assert bdd.apply_and(TRUE, TRUE) == TRUE
        assert bdd.apply_and(TRUE, FALSE) == FALSE
        x0 = bdd.var(0)
        assert bdd.apply_not(bdd.apply_not(x0)) == x0
        assert bdd.level(x0) == 0
        assert bdd.support(x0) == {0}

    def test_truth_table_round_trip(self):
        bdd = fresh(4)
        rng = random.Random(7)
        for _ in range(50):
            bits = rng.getrandbits(16)
            node = bdd.from_truth_bits(bits, [0, 1, 2, 3])
            assert bdd.to_truth_bits(node, [0, 1, 2, 3]) == bits

    def test_canonicity_across_build_paths(self):
        # AND built three ways must hit the same node.
        bdd = fresh(2)
        a, b = bdd.var(0), bdd.var(1)
        via_apply = bdd.apply_and(a, b)
        via_ite = bdd.ite(a, b, FALSE)
        via_table = bdd.from_truth_bits(0b1000, [0, 1])
        assert via_apply == via_ite == via_table

    def test_cache_stats_schema(self):
        bdd = fresh()
        bdd.apply_and(bdd.var(0), bdd.var(1))
        stats = bdd.cache_stats()
        assert set(stats) == {
            "entries", "hits", "misses", "hit_rate", "evictions", "nodes"
        }

    def test_arena_stats_schema(self):
        bdd = fresh()
        bdd.apply_xor(bdd.var(0), bdd.var(3))
        stats = bdd.arena_stats()
        assert set(stats) == {
            "capacity", "table_slots", "table_load", "cache_slots",
            "cache_occupancy", "cache_growths", "growths", "rehashes",
            "scalar_ops", "vector_ops", "bailouts",
        }

    def test_tiny_table_rehashes_and_answers_correctly(self):
        bdd = fresh(6, table_bits=4)
        rng = random.Random(3)
        bits = rng.getrandbits(64)
        node = bdd.from_truth_bits(bits, list(range(6)))
        assert bdd.to_truth_bits(node, list(range(6))) == bits
        assert bdd.arena_stats()["rehashes"] > 0

    def test_scalar_budget_bailout_counted(self):
        bdd = fresh(6, scalar_budget=1)
        rng = random.Random(5)
        a = bdd.from_truth_bits(rng.getrandbits(64), list(range(6)))
        b = bdd.from_truth_bits(rng.getrandbits(64), list(range(6)))
        bdd.apply_and(a, b)
        assert bdd.arena_stats()["bailouts"] > 0

    def test_cache_starts_small_and_grows_under_pressure(self):
        bdd = fresh(14)
        start = bdd.arena_stats()["cache_slots"]
        assert start < 1 << 18
        rng = random.Random(11)
        fns = [
            bdd.from_truth_bits(rng.getrandbits(1 << 14), list(range(14)))
            for _ in range(8)
        ]
        acc = fns[0]
        for f in fns[1:]:
            acc = bdd.apply_xor(bdd.apply_and(acc, f), f)
        stats = bdd.arena_stats()
        assert stats["cache_growths"] > 0
        assert stats["cache_slots"] > start

    def test_cache_growth_respects_cache_limit_target(self):
        bdd = fresh(12, cache_limit=1 << 8)
        rng = random.Random(13)
        for _ in range(6):
            a = bdd.from_truth_bits(rng.getrandbits(1 << 12), list(range(12)))
            b = bdd.from_truth_bits(rng.getrandbits(1 << 12), list(range(12)))
            bdd.apply_and(a, b)
        assert bdd.arena_stats()["cache_slots"] <= 1 << 8


class TestBackendSeam:
    def test_registry(self):
        assert BACKEND_NAMES == ("object", "arena")
        assert DEFAULT_BACKEND == "object"

    def test_make_manager_object(self):
        bdd = make_manager("object")
        assert isinstance(bdd, BDD)
        assert backend_of(bdd) == "object"

    def test_make_manager_arena(self):
        bdd = make_manager("arena")
        assert isinstance(bdd, ArenaBDD)
        assert backend_of(bdd) == "arena"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_manager("cudd")

    def test_missing_numpy_maps_to_backend_unavailable(self, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("No module named 'numpy'")
            return real_import(name, *args, **kwargs)

        monkeypatch.delitem(__import__("sys").modules, "repro.bdd.arena",
                            raising=False)
        monkeypatch.setattr(builtins, "__import__", no_numpy)
        with pytest.raises(BackendUnavailable, match="numpy"):
            make_manager("arena")


class TestCrossBackendTransfer:
    def _random_roots(self, bdd, rng, n=3):
        return [
            bdd.from_truth_bits(rng.getrandbits(64), list(range(6)))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("src_name,dst_name",
                             [("object", "arena"), ("arena", "object")])
    def test_round_trip_preserves_semantics_and_size(self, src_name, dst_name):
        rng = random.Random(11)
        src = make_manager(src_name)
        dst = make_manager(dst_name)
        for i in range(6):
            src.add_var(f"x{i}")
            dst.add_var(f"x{i}")
        roots = self._random_roots(src, rng)
        moved = import_dag(dst, export_dag(src, roots))
        for r_src, r_dst in zip(roots, moved):
            assert (src.to_truth_bits(r_src, list(range(6)))
                    == dst.to_truth_bits(r_dst, list(range(6))))
            assert src.size(r_src) == dst.size(r_dst)
