"""Static checks over the package source."""

import ast
from collections import defaultdict
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


def test_fractions_only_where_values_are_rational():
    """``fractions`` is imported by ``linalg`` (``solve``, and scaling the rational input
    of reference modules), ``rootsys`` (``to_root``, ``_symmetrizer``) and ``decomp``
    (``weight_fw``) alone: the package's complexes and layers hold integers.  No module
    takes ``linalg``'s ``Q`` alias for ``Fraction``."""
    importers, aliased = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and "fractions" in {a.name for a in node.names}:
                importers.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                importers.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "linalg":
                aliased |= {path.stem for a in node.names if a.name == "Q"}
    assert importers == {"decomp", "linalg", "rootsys"}
    assert not aliased


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(node, owner, defs, loads) -> None:
    """Collect (definition, its parent) pairs and (owner, kind, name) loads below ``node``.

    The owner of a load is the innermost definition around it, or the
    module's name for module-level code.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            defs.append((child, node))
            _scan(child, child, defs, loads)
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            loads.append((owner, ast.Name, child.id))
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            loads.append((owner, ast.Attribute, child.attr))
        _scan(child, owner, defs, loads)


def unreferenced(sources) -> list[str]:
    """The functions, classes and methods that the package's own code never reaches.

    A method is referenced by every attribute read that names it; any other
    definition by a load of its name in its own module, or in a module that
    imports it from there.  A load inside a definition is a reference from
    that definition.  Module-level code and dunder methods are reached; so
    is whatever a reached definition references.  The rest is reported: a
    definition used only inside itself, a group of helpers that reference
    only one another, and whatever only such a group uses.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sources}
    source_of = {(mod, a.asname or a.name): (n.module or "__init__", a.name)
                 for mod, tree in trees.items() for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.level == 1 for a in n.names}
    named: dict = defaultdict(list)
    methods: dict = defaultdict(list)
    refs: dict = defaultdict(set)
    where: dict = {}
    scans = []
    for mod, tree in trees.items():
        defs: list = []
        loads: list = []
        _scan(tree, mod, defs, loads)
        scans.append((mod, loads))
        for d, parent in defs:
            where[d] = f"{mod}.py:{d.lineno} {d.name}"
            if d.name.startswith("__"):
                refs[mod].add(d)
            elif isinstance(parent, ast.ClassDef):
                methods[d.name].append(d)
            else:
                named[mod, d.name].append(d)
    for mod, loads in scans:
        for owner, kind, name in loads:
            if kind is ast.Attribute:
                refs[owner].update(methods[name])
            else:
                refs[owner].update(named[mod, name] + named.get(source_of.get((mod, name)), []))
    reached = set(trees)
    todo = list(trees)
    while todo:
        for d in refs[todo.pop()] - reached:
            reached.add(d)
            todo.append(d)
    return [text for d, text in where.items() if d not in reached]


def test_every_definition_is_referenced():
    assert SOURCES and unreferenced(SOURCES) == []


def test_helpers_that_only_reach_one_another_are_unreferenced(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "def ping(): return pong() + only_from_the_cycle()\n"
        "def pong(): return ping()\n"
        "def only_from_the_cycle(): return 1\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def kept(): return used() + Box().get()\n"
        "class Box:\n"
        "    def __init__(self): self.v = self.helper()\n"
        "    def helper(self): return 1\n"
        "    def get(self): return self.v\n"
        "    def lonely(self): return self.lonely()\n"
        "KEPT = kept\n")
    (tmp_path / "b.py").write_text("def used(): return 1\ndef never(): return used()\n")
    found = unreferenced(sorted(tmp_path.glob("*.py")))
    assert sorted(text.split()[-1] for text in found) == [
        "lonely", "never", "only_from_the_cycle", "ping", "pong", "recursive"]
