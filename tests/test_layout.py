"""Tooling check on the size of the library.

``src/geolyap`` holds what the CLI commands and the paper's checks run, and
the aim is for it to shrink.  Its line total is pinned: a change that grows
it must raise ``SRC_LINES`` and say why in CHANGES.md.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "geolyap"
SRC_LINES = 3268


def test_library_line_total_is_pinned():
    total = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert total <= SRC_LINES, (
        f"src/geolyap has {total} lines, above the pinned {SRC_LINES}: raise SRC_LINES "
        "and say why in CHANGES.md")
