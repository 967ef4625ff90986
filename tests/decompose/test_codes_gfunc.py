"""Unit tests for code assignment and g-construction."""

import pytest

from repro.bdd.manager import BDD, TRUE
from repro.boolfunc.truthtable import TruthTable
from repro.decompose.codes import codes_from_d_tables, d_tables_from_codes, dense_codes
from repro.decompose.gfunc import build_g, vertex_codes_consistent
from repro.decompose.partitions import Partition


class TestCodes:
    def test_dense_codes(self):
        assert dense_codes(3) == [0, 1, 2]

    def test_d_tables_from_codes(self):
        part = Partition([0, 1, 1, 2])  # 2 bound variables
        tables = d_tables_from_codes(part, [0, 1, 2], 2)
        assert len(tables) == 2
        # vertex 0 -> code 0, vertices 1,2 -> code 1, vertex 3 -> code 2
        assert codes_from_d_tables(tables) == [0, 1, 1, 2]

    def test_rejects_duplicate_codes(self):
        part = Partition([0, 1, 1, 2])
        with pytest.raises(ValueError):
            d_tables_from_codes(part, [0, 1, 1], 2)

    def test_rejects_missing_codes(self):
        part = Partition([0, 1, 1, 2])
        with pytest.raises(ValueError):
            d_tables_from_codes(part, [0, 1], 2)

    def test_rejects_non_power_of_two(self):
        part = Partition([0, 1, 2])
        with pytest.raises(ValueError):
            d_tables_from_codes(part, [0, 1, 2], 2)

    def test_codes_from_empty_tables(self):
        assert codes_from_d_tables([]) == [0]


class TestVertexCodeConsistency:
    def test_consistent(self):
        assert vertex_codes_consistent([0, 1, 1], [10, 20, 20])

    def test_inconsistent(self):
        assert not vertex_codes_consistent([0, 0], [10, 20])


class TestBuildG:
    def _bdd(self):
        bdd = BDD()
        for name in ("y0", "y1", "w0", "w1"):
            bdd.add_var(name)
        return bdd

    def test_simple_two_codes(self):
        bdd = self._bdd()
        y0 = bdd.var(0)
        cof = [y0, bdd.apply_not(y0)]  # code 0 -> y0, code 1 -> ~y0
        g = build_g(bdd, [2], [0, 1], cof)
        w0 = bdd.var(2)
        expected = bdd.ite(w0, bdd.apply_not(y0), y0)
        assert g == expected

    def test_mismatched_lengths(self):
        bdd = self._bdd()
        with pytest.raises(ValueError):
            build_g(bdd, [2], [0, 1], [TRUE])

    def test_code_overflow(self):
        bdd = self._bdd()
        with pytest.raises(ValueError):
            build_g(bdd, [2], [0, 2], [TRUE, TRUE])

    def test_inconsistent_codes_rejected(self):
        bdd = self._bdd()
        y0 = bdd.var(0)
        with pytest.raises(ValueError):
            build_g(bdd, [2], [0, 0], [y0, bdd.apply_not(y0)])

    def test_unused_codes_are_zero(self):
        bdd = self._bdd()
        y0 = bdd.var(0)
        cofs = [y0, bdd.apply_not(y0), y0]  # codes 0,1,2 used; 3 unused
        g = build_g(bdd, [2, 3], [0, 1, 2], cofs)
        for y in (False, True):
            assert not bdd.eval(g, {0: y, 1: False, 2: True, 3: True})
