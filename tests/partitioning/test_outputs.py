"""Unit tests for the greedy output-partitioning heuristic."""

from repro.bdd.manager import BDD
from repro.boolfunc.truthtable import TruthTable
from repro.partitioning.outputs import partition_outputs, shared_inputs, trial_gain


def build(tables):
    bdd = BDD()
    n = tables[0].num_vars
    for i in range(n):
        bdd.add_var(f"x{i}")
    return bdd, [t.to_bdd(bdd, list(range(n))) for t in tables]


def ones_count_tables(n, bits):
    """Outputs = binary ones-count of n inputs (rd-style, highly shared)."""
    return [
        TruthTable.from_function(n, lambda *xs, b=b: (sum(xs) >> b) & 1)
        for b in range(bits)
    ]


class TestTrialGain:
    def test_rd_style_vector_has_positive_gain(self):
        tables = ones_count_tables(5, 3)
        bdd, nodes = build(tables)
        trial = trial_gain(bdd, nodes, list(range(5)), 4)
        assert trial is not None
        assert trial.gain > 0

    def test_small_support_returns_none(self):
        t = TruthTable.from_function(5, lambda a, b, c, d, e: a and b)
        bdd, nodes = build([t])
        assert trial_gain(bdd, nodes, list(range(5)), 4) is None

    def test_max_globals_abort(self):
        import random

        rng = random.Random(1)
        tables = [TruthTable.random(6, rng) for _ in range(3)]
        bdd, nodes = build(tables)
        assert trial_gain(bdd, nodes, list(range(6)), 4, max_globals=2) is None


class TestSharedInputs:
    def test_counts_overlap(self):
        t1 = TruthTable.from_function(4, lambda a, b, c, d: a ^ b)
        t2 = TruthTable.from_function(4, lambda a, b, c, d: b ^ c)
        bdd, nodes = build([t1, t2])
        assert shared_inputs(bdd, nodes[1], bdd.support(nodes[0])) == 1


class TestPartitionOutputs:
    def test_related_outputs_grouped(self):
        tables = ones_count_tables(5, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(5)), 4)
        # the ones-count outputs share everything; expect one big group
        assert any(len(g) >= 2 for g in groups)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2]

    def test_unrelated_outputs_not_grouped(self):
        # disjoint supports: no shared inputs -> singleton groups
        t1 = TruthTable.from_function(8, lambda *xs: (xs[0] + xs[1] + xs[2] + xs[3]) % 2 == 1)
        t2 = TruthTable.from_function(8, lambda *xs: (xs[4] + xs[5] + xs[6] + xs[7]) >= 2)
        bdd, nodes = build([t1, t2])
        groups = partition_outputs(bdd, nodes, list(range(8)), 3)
        assert sorted(map(len, groups)) == [1, 1]

    def test_max_group_cap(self):
        tables = ones_count_tables(6, 3)
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(6)), 4, max_group=1)
        assert all(len(g) == 1 for g in groups)

    def test_every_output_in_exactly_one_group(self):
        import random

        rng = random.Random(2)
        tables = [TruthTable.random(6, rng) for _ in range(4)]
        bdd, nodes = build(tables)
        groups = partition_outputs(bdd, nodes, list(range(6)), 4)
        flat = sorted(i for g in groups for i in g)
        assert flat == [0, 1, 2, 3]
