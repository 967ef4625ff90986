"""Result-cache benchmark: no cache vs cold fill vs warm replay.

The persistent result cache (``docs/CACHING.md``) promises that a warm
run over an unchanged design recomputes no group, and that a database
shared by many circuits never changes what any of them maps to.  This
module maps each circuit three times -- without a cache, cold into the
module's one database, then warm from it -- and pins the contract while
it measures: cold and warm BLIF equal the uncached BLIF, and the warm run
hits on every group and misses on none.  Circuits go through the rugged
script first, except the collapsed Table 2 rows in ``TABLE2_CAPS``.

All circuits share one database, filled in ``CIRCUITS`` order, as a
``--cache-db`` shared by a batch or a server is: a circuit's cold run
sees every entry the circuits before it stored.  The warm column against
the no-cache column is what a re-run gains; the cold column against it
is what a first run pays for the cache.
"""

import time

import pytest

from benchmarks.conftest import QUICK, emit, json_row, reset_results, write_json
from repro.algebraic.rugged import rugged
from repro.benchcircuits import get_circuit
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize

MODULE = "result_cache"

QUICK_SET = ["rd53", "misex1", "5xp1", "clip"]
FULL_SET = QUICK_SET + ["duke2", "alu4"]
CIRCUITS = QUICK_SET if QUICK else FULL_SET

#: Circuits mapped as their collapsed Table 2 row (``bench_table2_xc3000``)
#: instead of after the rugged script, with that row's group cap: the
#: paper had to "limit m" for alu4, and its rugged network maps for
#: minutes longer.
TABLE2_CAPS = {"alu4": 6}

_rows: list[dict] = []


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    """The one database every circuit of the module fills and reads.

    A fresh directory per module run: ``open_store`` memoizes stores per
    absolute path for the life of the process, so a reused path would
    leak warm state into the cold timings.
    """
    return str(tmp_path_factory.mktemp("result_cache") / "results.db")


@pytest.fixture(scope="module", autouse=True)
def _report():
    reset_results(MODULE)
    emit(MODULE, "== Result cache: no cache vs cold fill vs warm replay "
                 "(serial, k=5, one database shared in order) ==")
    emit(MODULE, f"{'net':>8} | {'grp':>4} {'luts':>5} | "
                 f"{'no-cache/s':>10} {'cold/s':>7} {'warm/s':>7} "
                 f"{'warm/none':>9}")
    yield
    if not _rows:
        return
    sums = {
        key: round(sum(row[key] for row in _rows), 3)
        for key in ("t_no_cache_s", "t_cold_s", "t_warm_s")
    }
    emit(MODULE, f"  sum: no cache {sums['t_no_cache_s']:.2f} s, "
                 f"cold {sums['t_cold_s']:.2f} s, "
                 f"warm {sums['t_warm_s']:.2f} s")
    write_json(MODULE, **{f"sum_{key}": value for key, value in sums.items()})


def _timed(net, config):
    start = time.perf_counter()
    result = synthesize(net.copy(), config)
    return result, time.perf_counter() - start


@pytest.mark.parametrize("name", CIRCUITS)
def test_no_cache_cold_warm(name, db):
    net = get_circuit(name).build()
    if name not in TABLE2_CAPS:
        rugged(net)
    cap = TABLE2_CAPS.get(name)
    base, t_base = _timed(net, FlowConfig(k=5, max_group=cap))
    cold, t_cold = _timed(net, FlowConfig(k=5, max_group=cap, cache_db=db))
    warm, t_warm = _timed(net, FlowConfig(k=5, max_group=cap, cache_db=db))

    # The contract being timed: the bytes of a run without a cache, and
    # a warm run that hits on every group.
    assert write_blif(cold.network) == write_blif(base.network)
    assert write_blif(warm.network) == write_blif(base.network)
    filled = cold.engine_stats
    assert warm.engine_stats.cache_misses == 0
    assert warm.engine_stats.cache_hits == (
        filled.cache_hits + filled.cache_misses
    )

    ratio = round(t_warm / t_base, 3) if t_base else float("inf")
    luts = len(warm.network.nodes)
    groups = warm.engine_stats.cache_hits
    _rows.append(dict(t_no_cache_s=t_base, t_cold_s=t_cold, t_warm_s=t_warm))
    emit(MODULE, f"{name:>8} | {groups:>4} {luts:>5} | "
                 f"{t_base:>10.2f} {t_cold:>7.2f} {t_warm:>7.2f} "
                 f"{ratio:>9.3f}")
    json_row(
        MODULE,
        name=name,
        max_group=cap,
        groups=groups,
        luts=luts,
        t_no_cache_s=round(t_base, 3),
        t_cold_s=round(t_cold, 3),
        t_warm_s=round(t_warm, 3),
        warm_over_no_cache=ratio,
    )
