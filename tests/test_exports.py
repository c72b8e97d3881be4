"""Every name a module exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil

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
