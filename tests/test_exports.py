"""Every name a module exports resolves, every name it imports is used,
every private definition is referenced and every module README's table
names exists, so a deletion leaves no stale export, import, helper or
README row behind."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import sumsetlab

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(sumsetlab.__path__)
    if info.name != "__main__"
)


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
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
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
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(sumsetlab\.\w+)` \|", text, re.M)
    assert rows
    missing = []
    for name in rows:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            missing.append(name)
    assert missing == []
