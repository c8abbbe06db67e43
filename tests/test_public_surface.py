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
must read it, and every module must use each name it imports.  No module
takes another's private name, except the readers listed in
``PRIVATE_IMPORTS``.

The oracles of ``tests/oracles.py`` share no code with the package, so
every name they take from it is listed in ``ORACLE_IMPORTS`` with the
reason it does not make an oracle depend on what it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dicrit"

KEPT = {
    "structure.is_collapsible": "a paper definition; the tests check its lemmas, and moving it "
                                "to tests/ would leave `digraph.boundary`, which `dicrit` "
                                "exports, with no reader",
    "census.load_record": "it validates the files that `census --out` writes",
    "iso.invariant_key": "bench/tracing.py patches it by name and BENCHMARK.json lists "
                         "its metrics; it goes with the next change to the benchmark",
    "digraph.bidirected_cycle": "exported from `dicrit` with the other standard digraphs",
    "digraph.Digraph.with_arcs": "the twin of `without_arcs`, which the benchmark traces",
    "digraph.Digraph.in_neighbours": "the twin of `out_neighbours`; the oracles and the "
                                     "tests' Ore split read it",
}

# Every private name that a module of src/dicrit takes from another, as
# "reader: module.name".  The dicolouring solver answers other modules
# through one entry, so a change to how it decides stays inside it.
PRIVATE_IMPORTS = {
    "census: dicrit.colouring._dicolouring",
    "structure: dicrit.colouring._dicolouring",
}

# Every name that tests/oracles.py takes from the package, with the reason
# an oracle that shares no code with the package may read it.  An oracle
# that starts calling a solver or a checker must add itself here.
ORACLE_IMPORTS = {
    "dicrit.budget.Budget": "the first kernel, kept as the node-sequence reference, "
                            "spends one node per call",
    "dicrit.colouring.Colouring": "a record type: the composed construction witnesses",
    "dicrit.constructions.ConstructionSpec": "a record type: the choices a level is listed for",
    "dicrit.constructions.build_g3": "the base level under the listed levels above it",
    "dicrit.constructions._gamma": "the base's Gamma under the composed ones, read at each "
                                   "call so that a test can patch it",
    "dicrit.digraph.Digraph": "the value type every oracle takes and returns",
    "dicrit.digraph.DigraphError": "the error the gadget check raises on bad input",
    "dicrit.digraph.bidirected_complete": "the K4 leaf of the Ore-composition oracles",
    "dicrit.digraph.boundary": "the Ore-collapsible oracle checks how the scan finds R, "
                               "not boundaries",
    "dicrit.digraph.induced": "the Ore-collapsible oracle checks how the scan finds R, "
                              "not induced subdigraphs",
    "dicrit.iso.canonical_form": "dedupes the 4-Ore classes, which check recognition, "
                                 "not isomorphism",
    "dicrit.ore.OreLeaf": "a record type: the leaf of a trace",
    "dicrit.ore.is_4ore": "the Ore-collapsible oracle checks how the scan finds R, "
                          "not recognition",
    "dicrit.potential.PotentialParams": "a record type: the discharging parameters",
    "dicrit.structure.ChargeLedger": "a record type, so that `to_json` can be compared",
    "dicrit.structure.D6Component": "a record type, so that `to_json` can be compared",
    "dicrit.structure.Transfer": "a record type, so that `to_json` can be compared",
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


def _from_module(node: ast.ImportFrom) -> str:
    """The module a ``from ... import`` reads; the relative imports of
    src/dicrit read the package."""
    if not node.level:
        return node.module or ""
    return f"dicrit.{node.module}" if node.module else "dicrit"


def _package_names(path: Path) -> set[str]:
    """``module.name`` for every name a file takes from the package: each
    name imported from a package module, and each attribute read off a
    package module it imports."""
    tree = ast.parse(path.read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        module = _from_module(node) if isinstance(node, ast.ImportFrom) else ""
        if module.split(".")[0] == "dicrit":
            for alias in node.names:
                qualified = f"{module}.{alias.name}"
                if module == "dicrit" and (PACKAGE / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = qualified
                else:
                    names.add(qualified)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dicrit":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def test_oracles_read_only_the_listed_package_names():
    assert sorted(_package_names(ROOT / "tests" / "oracles.py")) == sorted(ORACLE_IMPORTS)
    assert all(reason.strip() for reason in ORACLE_IMPORTS.values())


def test_modules_take_no_private_name_but_the_solver_entry():
    taken = {
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _package_names(path)
        if name.rsplit(".", 1)[1].startswith("_")
    }
    assert sorted(taken) == sorted(PRIVATE_IMPORTS)
