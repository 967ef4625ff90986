"""Executable documentation: fenced ``sh``/``python`` blocks must run.

Documentation rots when its examples are never executed; this module
extracts every fenced code block tagged ``sh``/``bash``/``python`` from
README.md and docs/*.md and runs it.  Blocks run per file, in document
order, inside one scratch directory seeded with the fixture circuits the
examples reference (``design.pla``, ``big.blif``, ...), so a later block
may consume files an earlier block produced — the resume example in
docs/RELIABILITY.md depends on this.

A block preceded by an ``<!-- doc-snippet: skip -->`` comment (an
optional parenthesized reason is allowed) is extracted but not executed;
use it for install instructions, test-suite recursion, and illustrative
fragments that reference the caller's locals.
"""

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = (
    "README.md",
    "docs/OBSERVABILITY.md",
    "docs/RELIABILITY.md",
    "docs/CACHING.md",
    "docs/SERVING.md",
    "docs/TARGETS.md",
    "docs/DISTRIBUTED.md",
)

_FENCE = re.compile(r"^```(\w*)\s*$")
_SKIP = re.compile(r"<!--\s*doc-snippet:\s*skip.*-->")
_RUNNABLE = {"sh", "bash", "python"}

SNIPPET_TIMEOUT = 300


@dataclass(frozen=True)
class Snippet:
    """One runnable fenced code block."""

    path: str  # repo-relative doc path
    lineno: int  # 1-based line of the opening fence
    lang: str  # normalized: "sh" or "python"
    code: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.lineno}"


def extract_snippets(relpath: str) -> list[Snippet]:
    """All runnable (non-skipped) snippets of one doc, in document order."""
    lines = (REPO / relpath).read_text(encoding="utf-8").splitlines()
    snippets: list[Snippet] = []
    in_fence = False
    lang = ""
    start = 0
    body: list[str] = []
    skip_next = False
    for i, line in enumerate(lines, start=1):
        fence = _FENCE.match(line)
        if not in_fence:
            if _SKIP.search(line):
                skip_next = True
            elif fence:
                in_fence, lang, start, body = True, fence.group(1), i, []
            elif line.strip():
                skip_next = False
        elif fence:
            in_fence = False
            if lang in _RUNNABLE and not skip_next:
                normalized = "sh" if lang in ("sh", "bash") else "python"
                snippets.append(
                    Snippet(relpath, start, normalized, "\n".join(body))
                )
            skip_next = False
        else:
            body.append(line)
    if in_fence:
        raise AssertionError(f"{relpath}:{start}: unterminated code fence")
    return snippets


# ----------------------------------------------------------------------
# execution harness
# ----------------------------------------------------------------------


def _snippet_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{prior}" if prior else src
    return env


def _write_fixture_circuits(workdir: Path) -> None:
    """Seed the scratch directory with the circuits the examples name."""
    from repro.benchcircuits.registry import get_circuit
    from repro.io.blif import write_blif
    from repro.io.pla import write_pla

    rd53 = get_circuit("rd53").build()
    misex1 = get_circuit("misex1").build()
    (workdir / "design.pla").write_text(write_pla(rd53))
    (workdir / "design.blif").write_text(write_blif(rd53))
    (workdir / "a.pla").write_text(write_pla(rd53))
    (workdir / "b.blif").write_text(write_blif(misex1))
    (workdir / "big.blif").write_text(write_blif(misex1))


def run_snippet(snippet: Snippet, workdir: Path) -> None:
    if snippet.lang == "sh":
        argv = ["bash", "-e", "-u", "-o", "pipefail", "-c", snippet.code]
    else:
        argv = [sys.executable, "-c", snippet.code]
    proc = subprocess.run(
        argv,
        cwd=workdir,
        env=_snippet_env(),
        capture_output=True,
        text=True,
        timeout=SNIPPET_TIMEOUT,
    )
    assert proc.returncode == 0, (
        f"{snippet.location}: {snippet.lang} snippet exited "
        f"{proc.returncode}\n--- code ---\n{snippet.code}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_snippets_execute(relpath, tmp_path):
    snippets = extract_snippets(relpath)
    assert snippets, f"{relpath}: no runnable snippets extracted"
    _write_fixture_circuits(tmp_path)
    for snippet in snippets:
        run_snippet(snippet, tmp_path)


# ----------------------------------------------------------------------
# extractor self-checks (cheap, no subprocesses)
# ----------------------------------------------------------------------


def test_skip_marker_is_honoured():
    snippets = extract_snippets("README.md")
    # The install block (`pip install -e .`) and the test-suite block
    # (`pytest tests/`) are marked skip; executing either from inside the
    # suite would be wrong.
    for s in snippets:
        assert "pip install" not in s.code
        assert "pytest tests/" not in s.code


def test_untagged_fences_are_not_collected():
    # docs/ARCHITECTURE.md's fences are diagrams/pseudo-JSON, all untagged.
    assert extract_snippets("docs/ARCHITECTURE.md") == []


def test_readme_has_python_quickstarts():
    langs = [s.lang for s in extract_snippets("README.md")]
    assert langs.count("python") >= 2
    assert "sh" in langs
