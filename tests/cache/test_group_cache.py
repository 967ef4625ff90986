"""Warm-cache equivalence at the flow level.

The contract under test (see ``docs/CACHING.md``): a warm run over the
same circuit hits on every group and emits **byte-identical** BLIF, under
either executor; a database shared across circuits never changes what a
circuit maps to; and a poisoned store entry is rejected by verification,
never trusted.
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
from repro.mapping.xc3000 import pack_xc3000
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


class TestSharedDatabase:
    def test_circuits_sharing_a_database_keep_their_own_bytes(self, tmp_path):
        # One database filled by 5xp1 and then clip, as a --cache-db
        # shared by a batch or a server fills: an entry another circuit
        # stored must never change what clip maps to.
        db = str(tmp_path / "cache.db")
        names = ["5xp1", "clip"]
        plain = {
            name: write_blif(
                synthesize(get_circuit(name).build(), FlowConfig(k=5)).network
            )
            for name in names
        }
        cold = {
            name: synthesize(
                get_circuit(name).build(), FlowConfig(k=5, cache_db=db)
            )
            for name in names
        }
        for name in names:
            assert write_blif(cold[name].network) == plain[name]
        assert pack_xc3000(cold["clip"].network).num_clbs == 4

        for name in names:
            warm = synthesize(
                get_circuit(name).build(), FlowConfig(k=5, cache_db=db)
            )
            filled = cold[name].engine_stats
            assert warm.engine_stats.cache_misses == 0
            assert warm.engine_stats.cache_hits == (
                filled.cache_hits + filled.cache_misses
            )
            assert write_blif(warm.network) == plain[name]


class TestEarlierKeySchemes:
    def test_canonical_function_keys_only_miss(self, tmp_path, capsys):
        # A database filled under the NPN-canonical key scheme held keys
        # ending in an ``npn:``/``raw:`` function key: same schema, no
        # warning, and no such key can answer a payload-fingerprint lookup.
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)
        plain = write_blif(synthesize(net, FlowConfig(k=4)).network)
        cold = synthesize(net, config(db))
        conn = sqlite3.connect(db)
        for (key,) in conn.execute("SELECT key FROM results").fetchall():
            prefix, fingerprint = key.rsplit(":", 1)
            conn.execute(
                "UPDATE results SET key = ? WHERE key = ?",
                (f"{prefix}:npn:{fingerprint * 2}", key),
            )
        conn.commit()
        conn.close()

        warm = synthesize(net, config(db))
        assert warm.engine_stats.cache_hits == 0
        assert warm.engine_stats.cache_rejects == 0
        assert warm.engine_stats.cache_misses == cold.engine_stats.cache_stores
        assert write_blif(warm.network) == plain
        assert "warning" not in capsys.readouterr().err


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

    def test_malformed_counts_are_rejected_not_merged(self, tmp_path):
        # Verification proves the sub-network, not the task counts that
        # ride along with it: a count that is no integer must turn the
        # entry into a reject, not crash the run's statistics.
        db = str(tmp_path / "cache.db")
        net = ones_count_network(5, 3)
        plain = write_blif(synthesize(net, FlowConfig(k=4)).network)
        cold = synthesize(net, config(db))
        conn = sqlite3.connect(db)
        for key, blob in conn.execute("SELECT key, payload FROM results"):
            payload = json.loads(blob)
            payload["kind_counts"] = {k: "x" for k in payload["kind_counts"]}
            conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?",
                (json.dumps(payload), key),
            )
        conn.commit()
        conn.close()

        warm = synthesize(net, config(db))
        assert warm.engine_stats.cache_hits == 0
        assert warm.engine_stats.cache_rejects == cold.engine_stats.cache_stores
        assert write_blif(warm.network) == plain


class TestTargetIsolation:
    def test_stores_never_cross_technology_targets(self, tmp_path):
        # Same circuit, same k = 5 groups: a store warmed for
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
