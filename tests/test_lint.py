"""Static checks on the package source that need no linter installed."""

import ast
import importlib.util
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


def unreached_definitions(sources, named=frozenset()):
    """(path, line, qualified name) for each function or class of
    ``sources`` ({path: text}) that no code of ``sources`` references,
    as a ``Name`` or an ``Attribute`` of its name, outside its own
    definition.  ``named`` holds (module, qualified name) pairs that
    count as referenced.  Special methods are called by the language,
    not by name, and are not listed."""
    refs, defs = [], []
    for path, text in sources.items():
        stack = [(ast.parse(text, str(path)), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Name):
                    refs.append((child.id, path, child.lineno))
                elif isinstance(child, ast.Attribute):
                    refs.append((child.attr, path, child.lineno))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualname = prefix + child.name
                    defs.append((path, child, qualname))
                    stack.append((child, qualname + "."))
                else:
                    stack.append((child, prefix))
    out = []
    for path, node, qualname in defs:
        if (node.name.startswith("__") and node.name.endswith("__")
                or (Path(path).stem, qualname) in named):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if not any(name == node.name and (
                where != path or not first <= line <= node.end_lineno)
                for name, where, line in refs):
            out.append((str(path), node.lineno, qualname))
    return sorted(out)


def test_unreached_definitions_are_found():
    a, b = Path("a.py"), Path("b.py")
    sources = {
        a: ("def used():\n    pass\n"
            "def recursive():\n    return recursive()\n"
            "class K:\n"
            "    def method(self):\n        return used()\n"
            "    def called(self):\n        pass\n"
            "    def __init__(self):\n        pass\n"
            "K().called()\n"),
        b: ("def traced():\n    pass\n"
            "def helper():\n    pass\n"
            "def caller(k):\n    return k.helper()\n")}
    assert unreached_definitions(sources, {("b", "traced")}) == [
        ("a.py", 3, "recursive"), ("a.py", 6, "K.method"),
        ("b.py", 5, "caller")]


# definitions that wait for the ROADMAP item that gives them a caller
AWAITING_A_CALLER = {
    26: [("brst", "BRSTDatum.euler_characteristics")],
    33: [("brst", "BRSTDatum.specialize"),
         ("operads", "AlgebraInstance.specialize")],
}


def test_every_definition_is_reached_without_the_tests():
    """Test-only surface belongs in tests/: every function and class of
    the package is referenced from the package itself, by a span of the
    benchmark's tracer, or by an entry of ``AWAITING_A_CALLER``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    named = {(module, qualname) for targets in layers.SPANS.values()
             for module, qualname, _ in targets}
    named.update(name for names in AWAITING_A_CALLER.values()
                 for name in names)
    sources = {p.relative_to(ROOT): p.read_text()
               for p in sorted(SRC.glob("*.py"))}
    assert unreached_definitions(sources, named) == []


def raises_in_constructors(source, filename="<source>"):
    """(line, class) for each ``raise`` inside an ``__init__``: a
    constructor only stores, and input is checked where it is read."""
    tree = ast.parse(source, filename)
    return sorted((node.lineno, cls.name)
                  for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for init in cls.body
                  if isinstance(init, ast.FunctionDef)
                  and init.name == "__init__"
                  for node in ast.walk(init) if isinstance(node, ast.Raise))


def test_raises_in_constructors_are_found():
    source = ("class A:\n"
              "    def __init__(self, x):\n"
              "        if x < 0:\n"
              "            raise ValueError(x)\n"
              "    def check(self):\n"
              "        raise ValueError\n"
              "class B:\n"
              "    def __init__(self):\n"
              "        def inner():\n"
              "            raise KeyError\n"
              "        self.f = inner\n")
    assert raises_in_constructors(source) == [(4, "A"), (10, "B")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_constructors_only_store(path):
    assert raises_in_constructors(path.read_text(), str(path)) == []
