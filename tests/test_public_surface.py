"""Every public name in ``src/dicrit`` has a caller, or a reason to stay.

A public name is a top-level function or class of a module in
``src/dicrit`` whose name does not start with an underscore, or such a
method of a public class.  It counts as used when code in ``src/`` (the
re-exports of ``__init__`` aside), in ``bench/`` or in
``tests/test_acceptance.py`` reads it outside its own definition: a bare
name, ``module.name`` for a function or class, or ``anything.name`` for a
method.  Names with no such reader are listed in ``KEPT`` with
the reason they stay; a name that gains a reader leaves the list.

A private module-level name has no such reasons: something in ``src/``
must read it, and every module must use each name it imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dicrit"

KEPT = {
    "ore.find_diamonds": "a paper object; the tests check its lemmas",
    "ore.find_emeralds": "a paper object; the tests check its lemmas",
    "ore.split_vertex": "a paper object (the Ore split); the tests check its lemmas",
    "structure.is_collapsible": "a paper definition; the tests check its lemmas",
    "census.load_record": "it validates the files that `census --out` writes",
    "iso.invariant_key": "bench/tracing.py patches it by name and BENCHMARK.json lists "
                         "its metrics; it goes with the next change to the benchmark",
    "digraph.bidirected_cycle": "a fixture builder",
    "digraph.Digraph.with_arcs": "a fixture builder",
}


def _public_names() -> dict[str, tuple[Path, ast.AST]]:
    """``module.name`` (``module.Class.method`` for methods) -> the file
    and the definition."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            names[f"{path.stem}.{node.name}"] = path, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                        names[f"{path.stem}.{node.name}.{method.name}"] = path, method
    return names


def _readers() -> list[Path]:
    src = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return src + sorted((ROOT / "bench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _owner(node: ast.expr, aliases: dict[str, str]) -> str:
    """The last name in the expression an attribute is read from, with an
    imported module's alias resolved (``census_mod`` is ``census``)."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _unused() -> set[str]:
    names = _public_names()
    # (file, line) of every read, keyed by the name read and, for
    # ``owner.name``, the owner ("*" for every read of an attribute).
    reads: dict[tuple[str, str], list[tuple[Path, int]]] = {}
    for path in _readers():
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname: alias.name.split(".")[-1]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                keys = [("", node.id)]
            elif isinstance(node, ast.Attribute):
                keys = [(_owner(node.value, aliases), node.attr), ("*", node.attr)]
            else:
                continue
            for key in keys:
                reads.setdefault(key, []).append((path, node.lineno))
    unused = set()
    for qualified, (path, node) in names.items():
        module, *owner, name = qualified.split(".")
        if owner:
            keys = [("*", name)]
        else:
            keys = [("", name), (module, name), ("dicrit", name)]
        outside = [
            (where, line)
            for key in keys for where, line in reads.get(key, ())
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside:
            unused.add(qualified)
    return unused


def test_every_public_name_has_a_reader_or_a_reason():
    unused = _unused()
    assert sorted(unused - KEPT.keys()) == []
    assert sorted(KEPT.keys() - unused) == [], "listed in KEPT but read, or gone"
    assert all(reason.strip() for reason in KEPT.values())


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level definition, assignment or import binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if getattr(node, "module", None) == "__future__":
        return []  # a compiler directive: it binds no name that code reads
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [
        name.id
        for target in targets if target is not None
        for name in ast.walk(target) if isinstance(name, ast.Name)
    ]


def _read_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) for every bare name or attribute read, and for every
    name taken from another module by ``from ... import``."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            reads.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            reads += [(alias.name, node.lineno) for alias in node.names]
    return reads


def test_every_private_name_and_import_is_read():
    # A module-level name with one leading underscore is read somewhere in
    # src/ outside its own definition (tests and bench/ do not count), and
    # every name a module imports is used in it, outside the import; the
    # imports of __init__ are the package's re-exports.
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = [
        (path, name, line) for path, tree in trees.items() for name, line in _read_names(tree)
    ]
    unread, unused = [], []
    for path, tree in trees.items():
        for node in tree.body:
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            if imports and path.name == "__init__.py":
                continue
            for name in _bound_names(node):
                if not imports and not (name.startswith("_") and not name.startswith("__")):
                    continue
                # an import is used only in its own module
                readers = [
                    (where, line) for where, read, line in reads
                    if read == name and (where == path or not imports)
                ]
                if all(where == path and node.lineno <= line <= node.end_lineno
                       for where, line in readers):
                    (unused if imports else unread).append(f"{path.stem}.{name}")
    assert unread == [], "private names that nothing in src/ reads"
    assert unused == [], "imported names that the module never uses"
