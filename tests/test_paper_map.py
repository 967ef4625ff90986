"""docs/PAPER_MAP.md's ``path:line`` anchors must point at what they name.

Every `` `src/...py:N` `` anchor must name an existing, non-blank line.
When a backticked name follows the anchor (`` (`name`) `` or
`` `name` ``), line N must contain the last dotted part of that name, so
an anchor that drifts off its definition fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ANCHOR = re.compile(r"`(src/[^`\s]+\.py):(\d+)`(?:\s*\(?`([\w.]+)`)?")


def anchors() -> list[tuple[str, int, str | None]]:
    text = (ROOT / "docs" / "PAPER_MAP.md").read_text(encoding="utf-8")
    return [
        (path, int(line), name) for path, line, name in ANCHOR.findall(text)
    ]


def test_the_map_has_anchors():
    assert len(anchors()) > 30


def test_every_anchor_points_at_its_definition():
    drifted = []
    for path, number, name in anchors():
        lines = (ROOT / path).read_text(encoding="utf-8").splitlines()
        if not 1 <= number <= len(lines) or not lines[number - 1].strip():
            drifted.append(f"{path}:{number} is past the end or blank")
        elif name and name.split(".")[-1] not in lines[number - 1]:
            drifted.append(f"{path}:{number} does not mention {name!r}")
    assert not drifted, "\n".join(drifted)
