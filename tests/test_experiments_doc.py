"""EXPERIMENTS.md must quote the numbers its benchmark artifacts hold.

The rugged Table 2 excerpt and its aggregate sentence are checked against
``benchmarks/results/BENCH_table2_rugged.json``: every measured
``r+I / r+F`` pair, the CLB totals and the rounded saving.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECTION = "## Table 2, columns r+IMODEC / r+FGMap"

# | net | paper r+I / r+F | measured r+I / r+F [comment] |
ROW = re.compile(r"^\|\s*(\w+)\s*\|[^|]*\|\s*(\d+)\s*/\s*(\d+)\b")
AGGREGATE = re.compile(
    r"measured \*\*(\d+) %\*\* on the full set \((\d+) vs (\d+) CLBs\)"
)


def rugged_section() -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = text.index(SECTION)
    end = text.index("\n## ", start + len(SECTION))
    return text[start:end]


def bench() -> dict:
    path = ROOT / "benchmarks" / "results" / "BENCH_table2_rugged.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_rugged_excerpt_rows_match_bench():
    measured = {
        row["name"]: (row["clb_multi"], row["clb_single"]) for row in bench()["rows"]
    }
    quoted = {}
    for line in rugged_section().splitlines():
        found = ROW.match(line)
        if found:
            quoted[found.group(1)] = (int(found.group(2)), int(found.group(3)))
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
