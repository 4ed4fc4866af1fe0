"""numpy, imported on first attribute access.

The two-party closed forms (``scan --parties 2``, ``overlap``, ``fock``)
need only ``math``, yet importing numpy would be a large share of their
start-up time.  So every module of the package takes ``np`` from here
instead of importing numpy itself: ``np`` is numpy's module object,
registered in ``sys.modules`` but executed only when one of its
attributes is first read.  Without numpy installed, that first read
raises ImportError.  Before Python 3.12 that first read must not race
another thread's, so the package starts no thread.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["np"]


class _Missing:
    """Stands in for a module that is not installed: any use raises ImportError."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self._name!r}", name=self._name)


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
