"""Every name a clab module lists in ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import clab

MODULES = ["clab", *(f"clab.{info.name}" for info in pkgutil.iter_modules(clab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
