"""Modules imported on first attribute access.

A command should compile and run only the code it calls, so numpy and
the package's own submodules come from one loader, ``lazy_import``: it
registers the module in ``sys.modules`` (and binds a submodule on its
package, as ``import`` does), but executes it only when one of its
attributes is first read.  ``verify``, ``scan`` at any ``--parties``,
``overlap``, ``fock`` and ``minimize-q`` need only ``math`` (the
two-party closed forms, both routes of the products on the radial rule
and the Mellin density, and the tridiagonal eigen-solve run on Python
floats), so they never load numpy; every module of the package
takes ``np`` from here instead of importing numpy itself.  A module
that is not installed comes back as a stand-in whose first attribute
read raises ImportError.  Before Python 3.12 a first read must not race
another thread's, so the package starts no thread.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["lazy_import", "np"]


class _Missing:
    """Stands in for a module that is not installed: any use raises ImportError."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self._name!r}", name=self._name)


def lazy_import(name: str):
    """The module ``name`` (absolute), registered now and executed at first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")
