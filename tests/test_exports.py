import importlib
import pkgutil

import pytest

import minuncert

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(minuncert.__path__))


@pytest.mark.parametrize("name", ["minuncert"] + [f"minuncert.{m}" for m in SUBMODULES])
def test_exported_names_resolve(name):
    # a renamed or deleted function must leave no dangling export behind
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
