"""Every public name in ``src/dicrit`` has a caller, or a reason to stay.

A public name is a top-level function or class of a module in
``src/dicrit`` whose name does not start with an underscore, or such a
method of ``Digraph``.  It counts as used when code in ``src/`` (the
re-exports of ``__init__`` aside), in ``bench/`` or in
``tests/test_acceptance.py`` reads it outside its own definition: a bare
name, ``module.name`` for a function or class, or ``anything.name`` for a
``Digraph`` method.  Names with no such reader are listed in ``KEPT`` with
the reason they stay; a name that gains a reader leaves the list.
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
    "constructions.predicted_counts": "the reference that build_gk is compared against",
    "census.load_record": "it validates the files that `census --out` writes",
    "iso.invariant_key": "bench/tracing.py patches it by name and BENCHMARK.json lists "
                         "its metrics; it goes with the next change to the benchmark",
    "digraph.bidirected_cycle": "a fixture builder",
    "digraph.bidirected_from_edges": "a fixture builder",
    "digraph.Digraph.with_arcs": "a fixture builder",
}


def _public_names() -> dict[str, tuple[Path, ast.AST]]:
    """``module.name`` (``digraph.Digraph.method`` for methods) -> the file
    and the definition."""
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            names[f"{path.stem}.{node.name}"] = path, node
            if isinstance(node, ast.ClassDef) and node.name == "Digraph":
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name[0] != "_":
                        names[f"{path.stem}.Digraph.{method.name}"] = path, method
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
        module, *_, name = qualified.split(".")
        if ".Digraph." in qualified:
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
