"""The documented public API surface works as advertised."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_readme_quickstart(self):
        """The README quickstart, verbatim."""
        from repro import BDD, decompose_multi
        from repro.boolfunc import TruthTable

        bdd = BDD()
        for i in range(5):
            bdd.add_var(f"x{i}")
        f1 = TruthTable.from_function(5, lambda *x: sum(x) % 2 == 1).to_bdd(bdd, range(5))
        f2 = TruthTable.from_function(5, lambda *x: sum(x) >= 3).to_bdd(bdd, range(5))
        result = decompose_multi(bdd, [f1, f2], bs_levels=[0, 1, 2, 3], fs_levels=[4])
        assert result.verify(bdd, [f1, f2])
        assert result.num_functions <= result.num_functions_unshared

    def test_readme_flow_snippet(self):
        from repro import FlowConfig, pack_xc3000, synthesize
        from repro.benchcircuits import get_circuit
        from repro.mapping.flow import verify_flow

        net = get_circuit("rd73").build()
        multi = synthesize(net, FlowConfig(k=5, mode="multi"))
        single = synthesize(net, FlowConfig(k=5, mode="single"))
        assert verify_flow(net, multi)
        assert pack_xc3000(multi.network).num_clbs <= pack_xc3000(single.network).num_clbs


def test_imports_load_no_pool_and_no_networkx():
    # The package has no runtime dependency, and only a run that builds
    # the process pool pays for multiprocessing.
    code = (
        "import sys; import repro, repro.mapping.flow, "
        "repro.mapping.structural, repro.engine.batch; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('networkx', 'multiprocessing') or m == 'concurrent.futures.process'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
