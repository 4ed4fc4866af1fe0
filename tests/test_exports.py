import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_import_runs_no_submodule():
    # the package serves its exports on first access, so importing it
    # runs none of its submodules; the first exported name runs only the
    # submodules that name needs, and every public submodule is an
    # attribute of the package, as after an eager import
    code = """
import sys
import minuncert
ran = lambda: sorted(n for n in sys.modules if n.startswith("minuncert."))
print(*ran(), sep=",")
minuncert.q0
print(*ran(), sep=",")
print(*[m for m in sys.argv[1:] if getattr(minuncert, m) is not sys.modules["minuncert." + m]])
"""
    public = [m for m in SUBMODULES if not m.startswith("_")]
    src = str(Path(minuncert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *public], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out == ["", "minuncert._lazy,minuncert.bipartite,minuncert.quadrature,"
                       "minuncert.simple_state,minuncert.specfun", ""]


def test_export_table_is_the_library_modules_all():
    # the package exports exactly the public names of its library modules,
    # each from the module that defines it
    want = {name: home for home in ("bipartite", "multipartite", "simple_state", "spectral")
            for name in importlib.import_module(f"minuncert.{home}").__all__}
    assert minuncert._HOME == want


def test_package_dir_and_unknown_names():
    names = dir(minuncert)
    assert set(minuncert.__all__) <= set(names)
    assert names == sorted(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        minuncert.no_such_name
    assert not hasattr(minuncert, "no_such_name")
    assert hasattr(minuncert, "z6_product")



# entry points that the benchmark's traced run (bench/layers.py) wraps by
# name; a refactor that renames one turns its per-layer metric "absent"
_PROBED = [
    ("minuncert.bipartite", "_angular_kernel_integral"),
    ("minuncert.bipartite", "uncertainty_product"),
    ("minuncert.multipartite", "functional_z"),
    ("minuncert.multipartite", "OdeFamilyProfile.normalization"),
    ("minuncert.multipartite", "OdeFamilyProfile.rk_norm"),
    ("minuncert.multipartite", "z4_product"),
    ("minuncert.multipartite", "z6_product"),
    ("minuncert.multipartite", "g_family"),
    ("minuncert.multipartite", "h_family"),
    ("minuncert.spectral", "min_eigenpair"),
    ("minuncert.simple_state", "minimize_q0"),
    ("minuncert.cli", "write_table"),
    ("minuncert.cli", "main"),
]


@pytest.mark.parametrize("module,attr", _PROBED, ids=[attr for _, attr in _PROBED])
def test_benchmark_probes_resolve(module, attr):
    # resolved as the tracer resolves them: on a class through its
    # __dict__, so a property is seen as one
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    target = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    assert callable(target) or (isinstance(target, property) and target.fget is not None)
