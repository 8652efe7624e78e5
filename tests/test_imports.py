"""Every name a planehopf module imports is used in that module.

A name counts as used when it appears as an identifier anywhere in the
module's syntax tree (calls, attribute bases, annotations, decorators).
``from __future__ import annotations`` is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "planehopf"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - {"annotations"})


def test_detector():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport sys\n"
              "from a import b as c, d\n"
              "def g(x: d) -> None:\n    return c(sys.argv)\n")
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
