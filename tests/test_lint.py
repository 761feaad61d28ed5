"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opelab"


def unread_imports(source, filename="<source>"):
    """(line, name) for each name an import binds that the module never
    reads; ``from __future__`` imports bind nothing to read."""
    tree = ast.parse(source, filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from fractions import Fraction as F, gcd\n"
              "def f():\n"
              "    from json import dumps, loads\n"
              "    return F(loads('1')), os\n")
    assert unread_imports(source) == [(3, "gcd"), (5, "dumps")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(), str(path)) == []
