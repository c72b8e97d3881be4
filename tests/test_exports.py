"""The package exports exactly its library modules' own `__all__`, every
name a module exports resolves, every name it imports is used, every
private definition is referenced and the README's table has one row per
module, so a deletion leaves no stale export, import, helper or README row
behind, and an addition needs no second declaration."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sumsetlab

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(sumsetlab.__path__)
    if info.name != "__main__"
)


# The command line and `__main__` stay out of the package namespace.
LIBRARY = [name for name in SUBMODULES if name != "cli"]


def test_package_exports_every_library_name_once():
    modules = [importlib.import_module(f"sumsetlab.{name}") for name in LIBRARY]
    owners = Counter(name for module in modules for name in module.__all__)
    assert sumsetlab.__all__ == sorted(owners)
    assert [
        (module.__name__, name)
        for module in modules
        for name in module.__all__
        if getattr(sumsetlab, name) is not getattr(module, name)
    ] == []
    assert [name for name, count in owners.items() if count > 1] == []


INIT = Path(sumsetlab.__file__)


def test_a_name_added_to_a_module_is_exported_with_no_other_edit(monkeypatch):
    # Run the package's own source again, in a fresh namespace, over a
    # module whose `__all__` has gained a name.
    marker = object()
    monkeypatch.setattr(sumsetlab.groups, "added_name", marker, raising=False)
    monkeypatch.setattr(sumsetlab.groups, "__all__", [*sumsetlab.groups.__all__, "added_name"])
    namespace = {"__name__": "sumsetlab", "__package__": "sumsetlab"}
    exec(compile(INIT.read_text(encoding="utf-8"), str(INIT), "exec"), namespace)
    assert namespace["added_name"] is marker
    assert "added_name" in namespace["__all__"]


def test_package_import_loads_neither_cli_nor_argparse_nor_mpmath():
    # The module sets are compared within one child, since the interpreter
    # may load site packages before the import.
    src = str(INIT.parent.parent)
    code = (
        "import sys; before = set(sys.modules); import sumsetlab; "
        "print(sorted({'sumsetlab.cli', 'argparse', 'mpmath'} & (set(sys.modules) - before)))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.stdout == "[]\n"


def test_package_exports_resolve():
    assert [name for name in sumsetlab.__all__ if not hasattr(sumsetlab, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"sumsetlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


SOURCES = sorted(Path(sumsetlab.__file__).parent.glob("*.py"))


def _imported(tree):
    """Each name an import binds (bar `from __future__`), with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """The names a module reads, its `__all__` entries, and the names in its
    string annotations."""
    used = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign):
            # A computed `__all__` is code, whose names the walk reads.
            if isinstance(node.value, (ast.List, ast.Tuple)) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        for note in filter(None, notes):
            for leaf in ast.walk(note):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    used |= _used(ast.parse(leaf.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    assert [(name, line) for name, line in _imported(tree) if name not in used] == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """Each private module-level function or class, and each private method
    of a module-level class, as (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _private(item.name):
                        yield f"{node.name}.{item.name}", item


def _references(node):
    """The names and attribute names read anywhere under node."""
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name):
            yield leaf.id
        elif isinstance(leaf, ast.Attribute):
            yield leaf.attr


def test_every_private_definition_is_referenced():
    # A reference inside the definition itself (a recursive call) does not
    # count, so a deleted caller cannot leave its helper behind.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    everywhere = Counter(name for tree in trees for name in _references(tree))
    definitions = [d for tree in trees for d in _private_definitions(tree)]
    orphans = [
        qualname
        for qualname, node in definitions
        if everywhere[node.name] == Counter(_references(node))[node.name]
    ]
    assert definitions
    assert orphans == []


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_module_table_names_modules():
    # One row for each module but `__main__`, and none for a module that
    # does not exist.
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(sumsetlab\.\w+)` \|", text, re.M)
    assert sorted(rows) == [f"sumsetlab.{name}" for name in SUBMODULES]


# A `LayeredGraph`'s stores, which only `graphs.py` reads or makes.
GRAPH_STORES = {
    "_keys", "_flat", "_lift", "_derived", "_out", "_index", "_sweeps", "_layer_of"
}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "graphs.py"], ids=lambda path: path.name
)
def test_only_graphs_reads_graph_stores(path):
    # Other modules read a graph through its methods, `_sweep` and
    # `_decode`, and derive graphs through `graphs`; `GSet._trusted` is
    # another class's constructor and stays open.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            node.attr in GRAPH_STORES
            or node.attr == "_trusted"
            and isinstance(node.value, ast.Name)
            and node.value.id == "LayeredGraph"
        )
    ]
    assert reads == []
