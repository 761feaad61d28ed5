"""Static checks on the package source that need no linter installed."""

import ast
import re
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


ROOT = SRC.parent.parent


def _words(*names):
    return re.compile("".join(r"(?=[\s\S]*\b%s\b)" % re.escape(n)
                              for n in names))


def unnamed_definitions(sources, lookup):
    """(path, line, name) for each function or class defined in one of
    ``sources`` ({path: text}) whose name appears as a whole word in no
    text of ``lookup`` ({path: text}, which holds the sources too) but
    on the line that defines it.  A module-level name counts as named in
    another file only when that file also names the module, as an import
    of it must, so that two modules' helpers of one name do not hide each
    other.  Special methods such as ``__init__`` are called by the
    language, not by name, and are not listed."""
    out = []
    for path, text in sorted(sources.items()):
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        top = set(tree.body)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = "\n".join(lines[:node.lineno - 1] + lines[node.lineno:])
            word = _words(node.name)
            elsewhere = (_words(node.name, Path(path).stem) if node in top
                         else word)
            if not word.match(own) and not any(
                    elsewhere.match(body) for other, body in lookup.items()
                    if other != path):
                out.append((str(path), node.lineno, node.name))
    return out


def test_unnamed_definitions_are_found():
    a, b, c = Path("a.py"), Path("b.py"), Path("c.py")
    sources = {a: ("def used():\n    pass\n"
                   "def unused():\n    return used()\n"
                   "def helper():\n    pass\n"
                   "class Kept:\n    def method(self):\n        pass\n")}
    lookup = dict(sources)
    lookup[b] = "from a import Kept\nKept().method()  # unused_too\n"
    lookup[c] = "def helper():\n    pass\nhelper()\n"
    assert unnamed_definitions(sources, lookup) == [
        (str(a), 3, "unused"), (str(a), 5, "helper")]


def test_every_definition_is_named_somewhere():
    lookup = {p.relative_to(ROOT): p.read_text()
              for d in ("src", "tests", "perfbench")
              for p in (ROOT / d).rglob("*.py")}
    sources = {p: t for p, t in lookup.items()
               if ROOT / p.parent == SRC}
    assert unnamed_definitions(sources, lookup) == []
