"""Docstring-coverage gate: every public definition documents itself.

``docs/PAPER_MAP.md`` anchors paper concepts to ``path:line`` of defining
functions, and ``docs/RELIABILITY.md`` describes the engine's recovery
semantics by API name -- both rot silently when code moves or gains
undocumented entry points.  This gate makes the rot loud: it walks a set
of files and fails when a module, public class, or public function lacks
a docstring.

Run it as a module (CI does)::

    python -m repro.tools.doccheck              # the default target set
    python -m repro.tools.doccheck src/repro    # or explicit paths

Rules:

- every module needs a module docstring;
- every public ``class``/``def``/``async def`` (name not starting with
  ``_``, plus ``__init__`` with a non-trivial body) needs a docstring;
- definitions nested inside functions are exempt (implementation detail);
- a trailing ``# doccheck: skip`` comment on the ``def``/``class`` line
  exempts one definition.

The default target set (``DEFAULT_TARGETS``) is the surface the docs
anchor into: the engine, cache, serve and targets packages, the shared
HTTP core ``src/repro/httpjson.py``, and the BDD transfer module.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Files/directories checked when no paths are given (repo-relative).
DEFAULT_TARGETS = (
    "src/repro/engine",
    "src/repro/cache",
    "src/repro/serve",
    "src/repro/targets",
    "src/repro/bdd/transfer.py",
    "src/repro/httpjson.py",
)

_SKIP_PRAGMA = "# doccheck: skip"


def _is_trivial(body: list[ast.stmt]) -> bool:
    """Whether a function body is ``pass``/``...`` only (nothing to document)."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _wants_docstring(node: ast.AST) -> bool:
    """Whether this class/function definition must carry a docstring."""
    name = node.name
    if name == "__init__":
        return not _is_trivial(node.body)
    if name.startswith("_") :
        return False
    return True


def check_file(path: Path) -> list[str]:
    """All docstring violations in one source file, as ``path:line: msg``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{path}:1: module has no docstring")

    def visit(node: ast.AST, qualname: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                pragma = _SKIP_PRAGMA in lines[child.lineno - 1]
                if (
                    not in_function
                    and not pragma
                    and _wants_docstring(child)
                    and ast.get_docstring(child) is None
                ):
                    kind = "class" if isinstance(child, ast.ClassDef) else "function"
                    problems.append(
                        f"{path}:{child.lineno}: "
                        f"{kind} {name!r} has no docstring"
                    )
                visit(
                    child,
                    name,
                    in_function or not isinstance(child, ast.ClassDef),
                )
            else:
                visit(child, qualname, in_function)

    visit(tree, "", False)
    return problems


def iter_source_files(targets: list[str], root: Path) -> list[Path]:
    """Expand target paths into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(f"doccheck target not found: {target}")
    return files


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.doccheck",
        description="fail when public definitions lack docstrings",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to check (default: {', '.join(DEFAULT_TARGETS)})",
    )
    args = parser.parse_args(argv)

    # Resolve defaults relative to the repo root (src/../..), so the gate
    # works from any working directory in CI.
    root = Path(__file__).resolve().parents[3]
    targets = args.paths or list(DEFAULT_TARGETS)
    try:
        files = iter_source_files(targets, root)
    except FileNotFoundError as exc:
        print(f"doccheck: {exc}", file=sys.stderr)
        return 2

    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(
            f"doccheck: {len(problems)} missing docstring(s) "
            f"across {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"doccheck: OK ({checked} file(s) fully documented)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
