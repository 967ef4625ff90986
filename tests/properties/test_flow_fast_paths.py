"""Whole-flow differential: random PLA functions under random configurations.

Every mapped network must be exactly equivalent to its specification, and
the three exact fast paths of bound-set search and IMODEC must not change
a byte of it:

- bit-parallel z-spaces (``BITSET_MAX_CLASSES``; 0 puts every z-space on
  a BDD);
- the column-count search for one output (``column_search`` declined);
- the serial run's shared bound-set kernel (``partition_kernel`` None).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executors import Engine
from repro.engine.policies import POLICIES
from repro.imodec import zspace as zspace_module
from repro.io.blif import write_blif
from repro.io.pla import parse_pla
from repro.mapping.flow import FlowConfig, synthesize, verify_flow
from repro.partitioning.kernel import BoundSetKernel


@st.composite
def plas(draw):
    """A PLA of 2-8 inputs, 1-4 outputs and 1-12 cubes."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4))
    cubes = draw(
        st.lists(
            st.tuples(
                st.text("01-", min_size=n, max_size=n),
                st.text("01", min_size=m, max_size=m).filter(lambda o: "1" in o),
            ),
            min_size=1,
            max_size=12,
        )
    )
    lines = [f".i {n}", f".o {m}", *(f"{i} {o}" for i, o in cubes), ".e"]
    return "\n".join(lines) + "\n"


configs = st.builds(
    FlowConfig,
    k=st.sampled_from([4, 5]),
    mode=st.sampled_from(["multi", "single"]),
    tie_break=st.sampled_from(["first", "balanced"]),
    strict=st.booleans(),
    policy=st.sampled_from(sorted(POLICIES)),
)


@given(plas(), configs)
@settings(max_examples=60, deadline=None)
def test_fast_paths_change_no_byte(pla, config):
    net = parse_pla(pla)
    result = synthesize(net.copy(), config)
    assert verify_flow(net, result)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zspace_module, "BITSET_MAX_CLASSES", 0)
        mp.setattr(BoundSetKernel, "column_search", lambda *args: None)
        mp.setattr(Engine, "partition_kernel", lambda self: None)
        reference = synthesize(net.copy(), config)
    assert write_blif(result.network) == write_blif(reference.network)
