"""Static checks over the package source."""

import ast
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
