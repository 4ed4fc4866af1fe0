"""Minimum-uncertainty products for multipartite continuous-variable states.

Closed forms, quadrature oracles and spectral tools for the family of
states minimizing products of quadrature-combination variances, with
entanglement detection thresholds for two, four and six parties.

Importing the package executes none of its submodules: each exported
name is looked up in its submodule at first access (PEP 562), so a
command compiles only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOME = {
    "XiParameter": "bipartite",
    "AngularProfile": "bipartite",
    "radial_rule": "bipartite",
    "UncertaintyReport": "bipartite",
    "r_closed": "bipartite",
    "uncertainty_product": "bipartite",
    "residual_norm_sq": "bipartite",
    "f_closed": "bipartite",
    "overlap": "bipartite",
    "fock_coeff": "bipartite",
    "fock_normalization_defect": "bipartite",
    "shell_sum": "bipartite",
    "shell_identity_check": "bipartite",
    "OperatorCoefficients": "multipartite",
    "OdeFamilyProfile": "multipartite",
    "b_coefficients": "multipartite",
    "family": "multipartite",
    "functional_z": "multipartite",
    "g_family": "multipartite",
    "h_family": "multipartite",
    "z_product": "multipartite",
    "z4_product": "multipartite",
    "z6_product": "multipartite",
    "alpha_beta_certificate": "multipartite",
    "SimpleStateSolution": "simple_state",
    "c1_c2": "simple_state",
    "q0": "simple_state",
    "minimize_q0": "simple_state",
    "BandedSymmetricForm": "spectral",
    "EigenPair": "spectral",
    "build_q_form": "spectral",
    "min_eigenpair": "spectral",
}

# the submodules reachable as attributes of the package, imported or not
_SUBMODULES = ("bipartite", "checks", "cli", "multipartite", "quadrature", "simple_state",
               "specfun", "spectral")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
