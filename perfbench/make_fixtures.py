"""Regenerate the rugged-prestructured BLIF fixtures of the rugged-large workload.

Running ``repro.algebraic.rugged`` takes from seconds to over a minute per
circuit, too slow to pay in every benchmark run's set-up, so its output is
checked in under ``perfbench/fixtures/``.  Run from the repository root:

    python3 perfbench/make_fixtures.py [NAME ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.algebraic.rugged import rugged  # noqa: E402
from repro.benchcircuits import get_circuit  # noqa: E402
from repro.io.blif import write_blif  # noqa: E402
from workloads import FIXTURES, WORKLOADS  # noqa: E402


def main(names: list[str]) -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name in names or WORKLOADS["rugged-large"].circuits:
        start = time.perf_counter()
        pre = rugged(get_circuit(name).build())
        (FIXTURES / f"{name}.blif").write_text(write_blif(pre), encoding="utf-8")
        print(f"{name}: {len(pre.nodes)} nodes, {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
