"""EXPERIMENTS.md must quote the numbers its benchmark artifacts hold.

Both Table 2 excerpts and their aggregate sentences are checked against
the committed BENCH files: the rugged one against
``benchmarks/results/BENCH_table2_rugged.json`` (every measured
``r+I / r+F`` pair, the CLB totals and the rounded saving, and the des
phase seconds quoted under "Known deviations"), the collapsed one against
``benchmarks/results/BENCH_table2_xc3000.json`` (every row's measured
``I / S`` pair, the totals, the saving and the win/tie/loss count).
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECTION = "## Table 2, columns r+IMODEC / r+FGMap"
COLLAPSED_SECTION = "## Table 2, columns IMODEC / Single"

# | net | paper r+I / r+F | measured r+I / r+F [comment] |
ROW = re.compile(r"^\|\s*(\w+)\s*\|[^|]*\|\s*(\d+)\s*/\s*(\d+)\b")
AGGREGATE = re.compile(
    r"measured \*\*(\d+) %\*\* on the full set \((\d+) vs (\d+) CLBs\)"
)
DES_PHASES = re.compile(
    r"des: `choose_bound_set` takes ([\d.]+) s in the trials and ([\d.]+) s "
    r"in decompose-vector, of the ([\d.]+) s `map` phase"
)
COLLAPSED_AGGREGATE = re.compile(
    r"measured \*\*(\d+) %\*\* \((\d+) vs (\d+) CLBs\) with "
    r"\*\*(\d+) wins, (\d+) ties?, (\d+) loss(?:es)?\*\*"
)


def section(title: str = SECTION) -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index(title)
    end = text.index("\n## ", start + len(title))
    return text[start:end]


def rugged_section() -> str:
    return section(SECTION)


def bench(module: str = "table2_rugged") -> dict:
    path = ROOT / "benchmarks" / "results" / f"BENCH_{module}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def quoted_rows(text: str) -> dict[str, tuple[int, int]]:
    quoted = {}
    for line in text.splitlines():
        found = ROW.match(line)
        if found:
            quoted[found.group(1)] = (int(found.group(2)), int(found.group(3)))
    return quoted


def measured_rows(data: dict) -> dict[str, tuple[int, int]]:
    return {
        row["name"]: (row["clb_multi"], row["clb_single"]) for row in data["rows"]
    }


def test_rugged_excerpt_rows_match_bench():
    measured = measured_rows(bench())
    quoted = quoted_rows(rugged_section())
    assert len(quoted) >= 10
    for name, pair in quoted.items():
        assert pair == measured[name], name


def test_rugged_aggregate_matches_bench():
    data = bench()
    found = AGGREGATE.search(" ".join(rugged_section().split()))
    assert found, "aggregate sentence not found"
    saving, multi, single = map(int, found.groups())
    assert (multi, single) == (data["total_clb_multi"], data["total_clb_single"])
    assert multi == sum(row["clb_multi"] for row in data["rows"])
    assert single == sum(row["clb_single"] for row in data["rows"])
    assert saving == round(data["saving_pct"])


def test_quoted_des_seconds_match_bench():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    found = DES_PHASES.search(" ".join(text.split()))
    assert found, "des phase sentence not found"
    data = bench()
    assert not data["quick"], "the committed artifact must be a full run"
    (des,) = [row for row in data["rows"] if row["name"] == "des"]
    phases = des["phases"]
    quoted = tuple(float(value) for value in found.groups())
    assert quoted == (
        round(phases["map/partition_outputs/choose_bound_set"], 2),
        round(phases["map/decompose-vector/choose_bound_set"], 2),
        round(phases["map"], 2),
    )


def test_collapsed_table_matches_bench():
    data = bench("table2_xc3000")
    assert not data["quick"], "the committed artifact must be a full run"
    assert quoted_rows(section(COLLAPSED_SECTION)) == measured_rows(data)


def test_collapsed_aggregate_matches_bench():
    data = bench("table2_xc3000")
    found = COLLAPSED_AGGREGATE.search(" ".join(section(COLLAPSED_SECTION).split()))
    assert found, "aggregate sentence not found"
    saving, multi, single, wins, ties, losses = map(int, found.groups())
    assert (multi, single) == (data["total_clb_multi"], data["total_clb_single"])
    assert multi == sum(row["clb_multi"] for row in data["rows"])
    assert single == sum(row["clb_single"] for row in data["rows"])
    assert saving == round(data["saving_pct"])
    assert (wins, ties, losses) == (data["wins"], data["ties"], data["losses"])
