"""DESIGN.md's repository layout (section 6) must match the tree.

Each unindented line of the layout block names a directory; an indented
line opens a subdirectory of it.  Every ``.py`` or ``.md`` name (a glob
when it holds ``*``) is a file of the directory opened last and must
exist, and every package under ``src/repro`` must be listed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout() -> dict[str, list[str]]:
    """Listed directory (repo-relative, ``/``-terminated) -> its files."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 6. Repository layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed: dict[str, list[str]] = {}
    root = current = ""
    for line in block.splitlines():
        words = line.split()
        if not words:
            continue
        if not line.startswith(" "):
            root = current = words.pop(0)
        elif words[0].endswith("/"):
            current = root + words.pop(0)
        listed.setdefault(current, []).extend(
            w for w in words if w.endswith((".py", ".md"))
        )
    return listed


def test_every_listed_path_exists():
    missing = []
    for directory, names in layout().items():
        if not (ROOT / directory).is_dir():
            missing.append(directory)
        for name in names:
            if not any((ROOT / directory).glob(name)):
                missing.append(directory + name)
    assert not missing, missing


def test_every_package_is_listed():
    listed = set(layout())
    packages = [
        init.parent.relative_to(ROOT).as_posix() + "/"
        for init in (ROOT / "src" / "repro").rglob("__init__.py")
    ]
    assert packages
    assert sorted(set(packages) - listed) == []
