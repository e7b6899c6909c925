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
