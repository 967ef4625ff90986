"""Unit tests for classical single-output decomposition."""

import random

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.single import decompose_single


def build(table: TruthTable):
    bdd = BDD()
    levels = list(range(table.num_vars))
    for i in levels:
        bdd.add_var(f"x{i}")
    return bdd, table.to_bdd(bdd, levels)


class TestDecomposeSingle:
    def test_random_functions_verify(self):
        rng = random.Random(17)
        for _ in range(25):
            t = TruthTable.random(6, rng)
            bdd, f = build(t)
            result = decompose_single(bdd, f, [0, 1, 2, 3], [4, 5])
            assert result.verify(bdd, f)
            assert result.codewidth == (result.num_classes - 1).bit_length()

    def test_xor_gives_one_function(self):
        t = TruthTable.from_function(5, lambda a, b, c, d, e: (a + b + c + d + e) % 2 == 1)
        bdd, f = build(t)
        result = decompose_single(bdd, f, [0, 1, 2], [3, 4])
        assert result.num_classes == 2
        assert result.codewidth == 1
        assert result.verify(bdd, f)

    def test_constant_needs_no_function(self):
        t = TruthTable.constant(4, True)
        bdd, f = build(t)
        result = decompose_single(bdd, f, [0, 1], [2, 3])
        assert result.codewidth == 0
        assert result.verify(bdd, f)

    def test_d_tables_and_nodes_agree(self):
        rng = random.Random(23)
        t = TruthTable.random(5, rng)
        bdd, f = build(t)
        result = decompose_single(bdd, f, [0, 1, 2], [3, 4])
        for table, node in zip(result.d_tables, result.d_nodes):
            assert TruthTable.from_bdd(bdd, node, [0, 1, 2]) == table

    def test_product_of_d_partitions_refines_pi_f(self):
        """Decomposition Condition 1."""
        from repro.decompose.partitions import Partition

        rng = random.Random(5)
        for _ in range(10):
            t = TruthTable.random(6, rng)
            bdd, f = build(t)
            result = decompose_single(bdd, f, [0, 1, 2, 3], [4, 5])
            if not result.d_tables:
                continue
            parts = [Partition([1 if dt[v] else 0 for v in range(16)]) for dt in result.d_tables]
            assert Partition.product_all(parts).refines(result.partition)

    def test_overlapping_sets_rejected(self):
        bdd, f = build(TruthTable.constant(3, True))
        with pytest.raises(ValueError):
            decompose_single(bdd, f, [0, 1], [1, 2])

    def test_support_outside_scope_rejected(self):
        t = TruthTable.from_function(3, lambda a, b, c: a and c)
        bdd, f = build(t)
        with pytest.raises(ValueError):
            decompose_single(bdd, f, [0], [1])

    def test_adder_bound_set(self):
        # MSB of a 2-bit + 2-bit addition; BS = first operand
        def msb(a0, a1, b0, b1):
            return (((a0 + 2 * a1) + (b0 + 2 * b1)) >> 1) & 1

        t = TruthTable.from_function(4, msb)
        bdd, f = build(t)
        result = decompose_single(bdd, f, [0, 1], [2, 3])
        assert result.verify(bdd, f)
        # columns = a value 0..3 -> function of b; all four columns distinct
        assert result.num_classes == 4
        assert result.codewidth == 2
