"""Warm-cache equivalence at the flow level.

The contract under test (see ``docs/CACHING.md``): a warm run over the
same circuit hits on every group and emits **byte-identical** BLIF, under
either executor; an NPN-equivalent circuit hits
through the de-canonicalizing rewrite and still verifies; and a poisoned
store entry is rejected by verification, never trusted.
"""

import json
import sqlite3

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits.registry import get_circuit
from repro.boolfunc.sop import Sop
from repro.boolfunc.truthtable import TruthTable
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.network.network import Network


def network_from_tables(tables, name="tst"):
    net = Network(name)
    n = tables[0].num_vars
    for i in range(n):
        net.add_input(f"x{i}")
    for k, t in enumerate(tables):
        net.add_node(f"f{k}", [f"x{i}" for i in range(n)], Sop.from_truthtable(t))
    net.set_outputs([f"f{k}" for k in range(len(tables))])
    return net


def ones_count_network(n, bits):
    tables = [
        TruthTable.from_function(n, lambda *xs, b=b: (sum(xs) >> b) & 1)
        for b in range(bits)
    ]
    return network_from_tables(tables, name=f"rd{n}{bits}")


def config(db, executor="serial"):
    jobs = 2 if executor == "process" else 1
    return FlowConfig(k=4, cache_db=db, executor=executor, jobs=jobs)


class TestWarmRunsAreByteIdentical:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rd53_warm_run_hits_every_group(self, tmp_path, executor):
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)
        plain = write_blif(synthesize(net, FlowConfig(k=4)).network)

        cold = synthesize(net, config(db, executor))
        warm = synthesize(net, config(db, executor))

        assert write_blif(cold.network) == plain
        assert write_blif(warm.network) == plain
        assert cold.engine_stats.cache_hits == 0
        assert cold.engine_stats.cache_stores > 0
        assert warm.engine_stats.cache_misses == 0
        assert warm.engine_stats.cache_hits == cold.engine_stats.cache_stores
        assert warm.engine_stats.cache_rejects == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_rugged_misex1_warm_run(self, tmp_path, executor):
        db = str(tmp_path / "cache.db")
        net = get_circuit("misex1").build()
        rugged(net)
        plain = write_blif(synthesize(net, FlowConfig(k=4)).network)

        cold = synthesize(net, config(db))
        warm = synthesize(net, config(db, executor))

        assert write_blif(cold.network) == plain
        assert write_blif(warm.network) == plain
        assert verify_flow(net, warm)
        assert warm.engine_stats.cache_misses == 0
        assert warm.engine_stats.cache_hits == cold.engine_stats.cache_stores


class TestNpnEquivalentCircuits:
    def test_transformed_circuit_hits_and_verifies(self, tmp_path):
        # g(a, b, c) = NOT maj(NOT a, b, c) is NPN-equivalent to maj; the
        # cached maj entry must be rewritten onto g's polarities (an
        # inverter LUT where the phases disagree) and verify exactly.
        db = str(tmp_path / "cache.db")
        maj = TruthTable.from_function(3, lambda a, b, c: a + b + c >= 2)
        trans = TruthTable.from_function(
            3, lambda a, b, c: not ((1 - a) + b + c >= 2)
        )
        cold = synthesize(network_from_tables([maj]), config(db))
        assert cold.engine_stats.cache_stores == 1

        net_g = network_from_tables([trans])
        warm = synthesize(net_g, config(db))
        assert warm.engine_stats.cache_hits == 1
        assert warm.engine_stats.cache_misses == 0
        assert verify_flow(net_g, warm)


class TestPoisonedEntries:
    def test_tampered_payload_is_rejected_not_trusted(self, tmp_path):
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)
        plain = write_blif(synthesize(net, FlowConfig(k=4)).network)
        synthesize(net, config(db))

        # Corrupt the semantics of every stored entry: flip one cared-for
        # value bit in the first cube of some LUT node.
        conn = sqlite3.connect(db)
        poisoned = 0
        for key, blob in conn.execute("SELECT key, payload FROM results"):
            payload = json.loads(blob)
            for node in payload["nodes"]:
                name, fanins, num_vars, cubes, constant = node
                if constant is None and cubes and cubes[0][0]:
                    care, value = cubes[0]
                    cubes[0] = [care, value ^ (care & -care)]
                    poisoned += 1
                    break
            conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?",
                (json.dumps(payload), key),
            )
        conn.commit()
        conn.close()
        assert poisoned > 0

        warm = synthesize(net, config(db))
        assert warm.engine_stats.cache_rejects >= poisoned
        assert warm.engine_stats.cache_hits == 0
        # The run recomputed and still emitted the right network...
        assert write_blif(warm.network) == plain
        # ...and healed the store: a second warm run hits everywhere.
        healed = synthesize(net, config(db))
        assert healed.engine_stats.cache_misses == 0
        assert write_blif(healed.network) == plain


class TestTargetIsolation:
    def test_stores_never_cross_technology_targets(self, tmp_path):
        # Same circuit, same k = 5 canonical forms: a store warmed for
        # lut-5 must never serve the reference xc3000-clb target (the
        # cached sub-network was priced and raced for another cell).
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)

        cold = synthesize(net, FlowConfig(target="lut-5", cache_db=db))
        assert cold.engine_stats.cache_stores > 0

        other = synthesize(net, FlowConfig(cache_db=db))
        assert other.engine_stats.cache_hits == 0
        assert other.engine_stats.cache_misses > 0
        assert other.engine_stats.cache_stores > 0

        # ...while each target's own lane stays warm.
        warm = synthesize(net, FlowConfig(target="lut-5", cache_db=db))
        assert warm.engine_stats.cache_misses == 0
        assert write_blif(warm.network) == write_blif(cold.network)

    def test_target_name_is_an_explicit_key_component(self, tmp_path):
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)
        synthesize(net, FlowConfig(target="lut-5", cache_db=db))
        synthesize(net, FlowConfig(cache_db=db))

        conn = sqlite3.connect(db)
        keys = [key for (key,) in conn.execute("SELECT key FROM results")]
        conn.close()
        assert keys
        assert all(":lut-5:" in k or ":xc3000-clb:" in k for k in keys)
        assert any(":lut-5:" in k for k in keys)
        assert any(":xc3000-clb:" in k for k in keys)


class TestWinnerProvenance:
    def payloads(self, db):
        conn = sqlite3.connect(db)
        rows = [
            json.loads(blob)
            for (blob,) in conn.execute("SELECT payload FROM results")
        ]
        conn.close()
        return rows

    def test_every_record_names_its_policy_and_target(self, tmp_path):
        db = str(tmp_path / "cache.db")
        synthesize(ones_count_network(5, 3), config(db))
        rows = self.payloads(db)
        assert rows
        for payload in rows:
            assert payload["policy"] == "ladder-peel"
            assert payload["target"] == "lut-4"  # k=4 resolves to lut-4

    def test_raced_records_name_the_winning_candidate(self, tmp_path):
        from repro.engine.policies import POLICIES

        db = str(tmp_path / "cache.db")
        race = "race:" + ",".join(sorted(POLICIES))
        result = synthesize(
            ones_count_network(5, 3), FlowConfig(policy=race, cache_db=db)
        )
        assert result.race_winners
        rows = self.payloads(db)
        assert rows
        for payload in rows:
            assert payload["policy"] in POLICIES  # the winner, not "race:..."
            assert payload["target"] == "xc3000-clb"

