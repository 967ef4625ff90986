"""Golden BLIF digests: the emitted bytes of the reference flows, pinned.

Each digest is the sha256 of ``write_blif`` of the mapped network under the
default ``FlowConfig(k=5)`` (serial executor, object backend unless noted),
the same digests ``perfbench/run.py`` prints per circuit.  A refactor of
any layer below the flow -- BDD package, bound-set scoring, IMODEC, the
engine -- must leave every digest unchanged.  vg2 has outputs wider than
the truth-table limit, so its bound sets are scored on the BDD route.
"""

import hashlib

import pytest

from repro.algebraic.rugged import rugged
from repro.benchcircuits import get_circuit
from repro.io.blif import write_blif
from repro.mapping.flow import FlowConfig, synthesize
from repro.mapping.structural import synthesize_structural

GOLDEN = {
    "rd53": "18202d2aa0294ba9a10e87feafb7ec980560627b40e756a6deccf2482c64816f",
    "5xp1": "c9d85d972bb402aecaa6bce0b7720c54365be2ee6802e0f5d5adebf8a64aa962",
    "misex1": "bb6d70e19f7e610fe6de42ee5730bc51819bd49f783a23e6be9ee442e42cd551",
    "vg2": "9f658ae7e1e77d4e720185c3d6e5e986120143cc1404d3f1e8df0116e4f7d902",
}


def digest(result) -> str:
    return hashlib.sha256(write_blif(result.network).encode()).hexdigest()


@pytest.mark.parametrize("name", ["rd53", "5xp1", "misex1", "vg2"])
def test_collapsed_flow(name):
    result = synthesize(get_circuit(name).build(), FlowConfig(k=5))
    assert digest(result) == GOLDEN[name]


def test_rugged_structural_flow():
    network = rugged(get_circuit("misex1").build().copy())
    assert digest(synthesize_structural(network, FlowConfig(k=5))) == GOLDEN["misex1"]


@pytest.mark.parametrize("name", ["rd53", "misex1"])
def test_arena_backend(name):
    pytest.importorskip("numpy")
    config = FlowConfig(k=5, bdd_backend="arena")
    assert digest(synthesize(get_circuit(name).build(), config)) == GOLDEN[name]
