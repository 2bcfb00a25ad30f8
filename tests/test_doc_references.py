"""Every test a docstring or document cites must exist.

Docstrings and the docs point readers at the tests that back a claim
(``tests/test_dram.py::TestQueuingClaims``). When a test file is renamed
or folded into another the citation silently goes stale, so this test
collects every ``tests/<name>.py[::Node...]`` reference and checks that
the file exists and defines each named class or function.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src", "docs", "README.md", "DESIGN.md", "EXPERIMENTS.md")
CITATION = re.compile(r"tests/(\w+\.py)((?:::\w+)*)")


def _cited() -> dict[tuple[str, str], list[str]]:
    """(file, node path) -> the places that cite it."""
    found: dict[tuple[str, str], list[str]] = {}
    for name in SOURCES:
        root = ROOT / name
        paths = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.suffix in (".py", ".md")
        )
        for path in paths:
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for match in CITATION.finditer(line):
                    where = f"{path.relative_to(ROOT)}:{lineno}"
                    found.setdefault(match.groups(), []).append(where)
    return found


def test_citations_are_found():
    # the collector itself must see the citations it is meant to guard
    assert ("test_dram.py", "::TestQueuingClaims") in _cited()


def test_every_cited_test_exists():
    stale = []
    for (filename, nodes), where in sorted(_cited().items()):
        path = ROOT / "tests" / filename
        if not path.is_file():
            stale.append(f"tests/{filename} (cited at {', '.join(where)})")
            continue
        text = path.read_text()
        for node in nodes.split("::")[1:]:
            if not re.search(rf"^\s*(?:class|def) {node}\b", text, re.M):
                stale.append(
                    f"tests/{filename}{nodes}: no {node} "
                    f"(cited at {', '.join(where)})"
                )
    assert not stale, "stale test citations:\n" + "\n".join(stale)
