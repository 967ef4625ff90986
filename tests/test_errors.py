"""The exception hierarchy, and proof the de-asserted paths survive ``-O``.

Load-bearing invariants used to be ``assert`` statements, which vanish when
Python runs with optimization enabled.  The subprocess smoke here runs the
hardened error paths under ``python -O`` and checks they still raise the
structured exceptions.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import (
    BudgetExceeded,
    DecompositionError,
    ReproError,
    VerificationError,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestHierarchy:
    def test_domain_errors_share_a_base(self):
        for cls in (DecompositionError, VerificationError, BudgetExceeded):
            assert issubclass(cls, ReproError)
        assert issubclass(ReproError, RuntimeError)

    def test_public_api_exports(self):
        import repro

        assert repro.DecompositionError is DecompositionError
        assert repro.VerificationError is VerificationError
        assert repro.BudgetExceeded is BudgetExceeded

    def test_budget_exceeded_is_structured(self):
        exc = BudgetExceeded("synthesize", "nodes", 100, 250)
        assert exc.span == "synthesize"
        assert exc.metric == "nodes"
        assert exc.limit == 100
        assert exc.actual == 250
        assert "'synthesize'" in str(exc) and "250 > 100" in str(exc)

    def test_verification_error_carries_counterexample(self):
        exc = VerificationError("y differs", failing_output="y",
                                counterexample={"a": True})
        assert exc.failing_output == "y"
        assert exc.counterexample == {"a": True}


class TestExpect:
    def test_expect_raises_with_details(self):
        from repro.boolfunc.sop import Sop
        from repro.network.network import Network
        from repro.verify import check_equivalence

        def make(rows, name):
            net = Network(name)
            for sig in ("p", "q"):
                net.add_input(sig)
            net.add_node("y", ["p", "q"], Sop.from_strings(2, rows))
            net.set_outputs(["y"])
            return net

        result = check_equivalence(make(["11"], "a"), make(["1-"], "b"))
        with pytest.raises(VerificationError) as exc_info:
            result.expect("mapping broke equivalence")
        exc = exc_info.value
        assert "mapping broke equivalence" in str(exc)
        assert exc.failing_output == "y"
        assert exc.counterexample is not None

    def test_expect_chains_on_success(self):
        from repro.boolfunc.sop import Sop
        from repro.network.network import Network
        from repro.verify import check_equivalence

        net = Network("a")
        net.add_input("p")
        net.add_node("y", ["p"], Sop.from_strings(1, ["1"]))
        net.set_outputs(["y"])
        result = check_equivalence(net, net.copy())
        assert result.expect() is result


_O_SMOKE = """\
import sys
if __debug__:
    sys.exit(3)  # the harness failed to pass -O; the smoke proves nothing

from repro.boolfunc.sop import Sop
from repro.errors import DecompositionError, VerificationError
from repro.imodec.lmax import pick_vertex
from repro.imodec.zspace import ZSpace
from repro.network.network import Network
from repro.verify import check_equivalence

def make(rows, name):
    net = Network(name)
    for sig in ("p", "q"):
        net.add_input(sig)
    net.add_node("y", ["p", "q"], Sop.from_strings(2, rows))
    net.set_outputs(["y"])
    return net

try:
    check_equivalence(make(["11"], "a"), make(["1-"], "b")).expect()
    sys.exit(4)
except VerificationError as exc:
    if exc.failing_output != "y" or exc.counterexample is None:
        sys.exit(5)

z = ZSpace(2)
foreign = z.bdd.add_var("w")
try:
    pick_vertex(z, foreign, "balanced")
    sys.exit(6)
except DecompositionError:
    pass

print("OK")
"""


class TestOptimizedMode:
    def test_error_paths_still_raise_under_python_O(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _O_SMOKE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stdout, proc.stderr)
        assert proc.stdout.strip() == "OK"

    def test_cli_run_report_under_python_O(self, tmp_path):
        from repro.benchcircuits import get_circuit
        from repro.io.blif import write_blif
        from repro.observe import validate_report

        circuit = tmp_path / "rd53.blif"
        circuit.write_text(write_blif(get_circuit("rd53").build()))
        report = tmp_path / "report-O.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "repro.cli", "synth", str(circuit),
             "--k", "4", "--report", str(report)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (proc.stdout, proc.stderr)
        assert validate_report(json.loads(report.read_text()))["meta"]["verified"]
