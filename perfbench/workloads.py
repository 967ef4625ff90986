"""The benchmark's workloads, their inputs, and the independent output check."""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Collapsed-flow circuits: Table 2's collapsed IMODEC column without the
#: slowest rows (see README.md for why alu4, apex6, duke2, count and apex7
#: are left out).
COLLAPSED = (
    "term1", "e64", "vg2", "misex2", "alu2", "5xp1", "9sym", "clip",
    "f51m", "misex1", "rd53", "rd73", "rd84", "sao2", "z4ml",
)


@dataclass(frozen=True)
class Workload:
    """One set of circuits and the flow entry point that maps them.

    Why each workload exists is recorded in ``BENCHMARK.json`` and
    ``README.md``.
    """

    name: str
    circuits: tuple[str, ...]
    entry: str  # "structural", "collapsed" or "batch"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rugged-large", ("C5315", "rot"), "structural"),
        Workload("collapsed-suite", COLLAPSED, "collapsed"),
        Workload("batch-process", COLLAPSED, "batch"),
    )
}


def flow_config(workload: Workload):
    """``FlowConfig(k=5)`` defaults; the batch runs on the process executor.

    One pool worker, not two: see README.md for why ``jobs=2`` cannot be
    measured steadily on a shared 2-vCPU host.
    """
    from repro.mapping.flow import FlowConfig

    if workload.entry == "batch":
        return FlowConfig(k=5, executor="process", jobs=1)
    return FlowConfig(k=5)


def load_inputs(workload: Workload):
    """The networks the program receives, by circuit name.

    rugged-large reads the checked-in rugged-prestructured BLIFs (see
    ``make_fixtures.py``); the collapsed workloads build the circuits from
    the program's benchmark registry.
    """
    if workload.entry == "structural":
        from repro.io.blif import parse_blif

        return {
            name: parse_blif((FIXTURES / f"{name}.blif").read_text(encoding="utf-8"))
            for name in workload.circuits
        }
    from repro.benchcircuits import get_circuit

    return {name: get_circuit(name).build() for name in workload.circuits}


#: Circuits with at most this many inputs are checked exhaustively.
EXHAUSTIVE_INPUTS = 12
#: Random vectors drawn for wider circuits.
NUM_RANDOM = 1024


def input_words(inputs: list[str], seed: int, name: str) -> tuple[dict[str, int], int]:
    """Bit-parallel input vectors: bit ``i`` of each word is vector ``i``.

    Exhaustive for few inputs, else ``NUM_RANDOM`` vectors drawn from the
    seed.  Returns ``(words, number of vectors)``.
    """
    n = len(inputs)
    if n <= EXHAUSTIVE_INPUTS:
        rows = 1 << n
        words = {}
        for j, pi in enumerate(inputs):
            word = 0
            for row in range(rows):
                if (row >> j) & 1:
                    word |= 1 << row
            words[pi] = word
        return words, rows
    rng = random.Random(f"{seed}:{name}")
    return {pi: rng.getrandbits(NUM_RANDOM) for pi in inputs}, NUM_RANDOM


def simulate(network, words: dict[str, int], count: int) -> dict[str, int]:
    """Every signal's value on ``count`` vectors at once.

    The semantics of ``Network.evaluate`` (a node is the OR of its cubes,
    a cube the AND of its literals over the fanins in order) on Python
    ints used as bit vectors; it touches no decomposition or BDD code.
    """
    mask = (1 << count) - 1
    values = {pi: words[pi] & mask for pi in network.inputs}
    for name in network.topological_order():
        node = network.nodes[name]
        fanins = [values[f] for f in node.fanins]
        acc = 0
        for cube in node.cover.cubes:
            term = mask
            for j, word in enumerate(fanins):
                if (cube.care >> j) & 1:
                    term &= word if (cube.value >> j) & 1 else ~word
            acc |= term
        values[name] = acc & mask
    return values


class Checker:
    """Simulates mapped netlists against the source circuits.

    Expected values come from the *source* circuit (the registry build,
    never the prestructured fixture).  A netlist is checked once per
    distinct BLIF digest.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._expected: dict[str, tuple[dict, int, dict]] = {}
        self._verdicts: dict[tuple[str, str], bool] = {}

    def _reference(self, name: str):
        if name not in self._expected:
            from repro.benchcircuits import get_circuit

            source = get_circuit(name).build()
            words, count = input_words(list(source.inputs), self.seed, name)
            values = simulate(source, words, count)
            self._expected[name] = (
                words, count, {out: values[out] for out in source.outputs}
            )
        return self._expected[name]

    def check(self, name: str, digest: str, result) -> bool:
        """True when ``result`` (a FlowResult) computes circuit ``name``."""
        key = (name, digest)
        if key not in self._verdicts:
            words, count, expected = self._reference(name)
            ok = set(result.output_signals) == set(expected)
            if ok:
                got = simulate(result.network, words, count)
                ok = all(
                    got[signal] == expected[out]
                    for out, signal in result.output_signals.items()
                )
            self._verdicts[key] = ok
        return self._verdicts[key]
