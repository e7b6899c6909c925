"""Static checks over the package source."""

import ast
from collections import Counter
from pathlib import Path

import nhsf

SOURCES = sorted(Path(nhsf.__file__).parent.glob("*.py"))


def test_no_unused_top_level_imports():
    unused = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert SOURCES and not unused


def test_invariants_raise_invariant_error():
    """One failure type: no ``raise AssertionError`` and no ``assert`` (gone under -O)."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert SOURCES and not found


def _names(node, kind) -> Counter:
    """How often a tree loads each name (kind ast.Name) or reads each attribute (ast.Attribute)."""
    return Counter(n.id if kind is ast.Name else n.attr for n in ast.walk(node)
                   if isinstance(n, kind) and isinstance(n.ctx, ast.Load))


def unreferenced(sources) -> list[str]:
    """The functions, classes and methods that no other code of the package uses.

    A method counts as used when an attribute read anywhere in the package
    names it; any other definition when its own module loads its name or
    another module imports it from there.  A use inside the definition
    itself does not count.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sources}
    imported = Counter((n.module or "__init__", a.name) for tree in trees.values()
                       for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
                       for a in n.names)
    attrs = sum((_names(tree, ast.Attribute) for tree in trees.values()), Counter())
    unused = []
    for mod, tree in trees.items():
        loads = _names(tree, ast.Name)
        methods = {id(d) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for d in c.body}
        for d in ast.walk(tree):
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if d.name.startswith("__"):
                continue
            if id(d) in methods:
                used = attrs[d.name] > _names(d, ast.Attribute)[d.name]
            else:
                used = (loads[d.name] > _names(d, ast.Name)[d.name]
                        or imported[(mod, d.name)] > 0)
            if not used:
                unused.append(f"{mod}.py:{d.lineno} {d.name}")
    return unused


def test_every_definition_is_referenced():
    assert SOURCES and unreferenced(SOURCES) == []
