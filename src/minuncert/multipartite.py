"""Four- and six-party functionals and their ODE-constructed families.

The expectation functional for 2n parties is a prefactored integral of
(sum_k b_k r^k f^(k))^2.  The b table, the factorial matrix pair behind
it, and the vanishing Pochhammer residuals run in exact rational
arithmetic.  The near-optimal families solve (1 - a) v + a r v' = base
through incomplete-gamma kernels under the same angular integral as the
two-party profile; every derivative is chained algebraically through
the ODE, never taken numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bipartite import AngularProfile, UncertaintyReport, as_xi
from .quadrature import integrate_semi_infinite
from .specfun import Tolerance, binom, tabulated_upper_gamma

__all__ = [
    "OperatorCoefficients",
    "OdeFamilyProfile",
    "SEPARABLE_BOUND_4",
    "PRODUCT_INFIMUM_4",
    "SEPARABLE_BOUND_6",
    "PRODUCT_INFIMUM_6",
    "b_coefficients",
    "pascal_matrix_pair",
    "pochhammer_root_residual",
    "functional_z",
    "g_family",
    "h_family",
    "z4_product",
    "z6_product",
    "alpha_beta_certificate",
]

SEPARABLE_BOUND_4 = 1.0 / 16.0
PRODUCT_INFIMUM_4 = 1.0 / 30.0
SEPARABLE_BOUND_6 = 1.0 / 64.0
PRODUCT_INFIMUM_6 = 35.0 / 4096.0

# the functional inherits the angular-pass noise floor described at
# bipartite._NORM_TOL
_Z_TOL = Tolerance(abs_tol=1e-9, rel_tol=3e-7)

_GAMMA_THIRD = 2.678938534707747  # Gamma(1/3)


@dataclass(frozen=True)
class OperatorCoefficients:
    """Exact coefficient table of the order-n differential operator."""

    n: int
    b: tuple
    prefactor: Fraction


@lru_cache(maxsize=16)
def b_coefficients(n: int) -> OperatorCoefficients:
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    table = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += Fraction((-1) ** j * binom(k, j) * binom(j * n, n))
        table.append(Fraction((-1) ** k, math.factorial(k)) * acc)
    return OperatorCoefficients(
        n=n,
        b=tuple(table),
        prefactor=Fraction(3 * math.factorial(n) ** 3, math.factorial(3 * n)),
    )


def pascal_matrix_pair(n: int):
    """Lower-triangular factorial matrix and its signed inverse, exactly."""
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    fwd = [
        [Fraction(1, math.factorial(i - j)) if i >= j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    inv = [
        [
            Fraction((-1) ** (i - j), math.factorial(i - j)) if i >= j else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return fwd, inv


def pochhammer_root_residual(n: int, j: int) -> Fraction:
    """sum_k b_k (j/n)(j/n - 1)...(j/n - k + 1); exactly zero for 0 <= j < n.

    The vanishing falling-factorial sums are precisely why the monomials
    r^(j/n) are annihilated by the operator, so no non-normalizable
    kernel element can masquerade as a profile.
    """
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    if not (isinstance(j, int) and 0 <= j < n):
        raise ValueError(f"j must be an integer in [0, n), got {j!r}")
    ops = b_coefficients(n)
    alpha = Fraction(j, n)
    total = Fraction(0)
    for k in range(1, n + 1):
        falling = Fraction(1)
        for i in range(k):
            falling *= alpha - i
        total += ops.b[k - 1] * falling
    return total


# ---------------------------------------------------------------------------
# kernel algebra
#
# With x = gamma(theta) r and e = e^{-x}, each angular kernel K below
# satisfies (1 - a) K + a (r K') = driving term, and multiplying the
# differentiated relations by r gives closed expressions for r^k K^(k)
# with no cancellation-prone numerics.


def _t_kernel(c: float, x):
    # x^c Gamma(-c, x); tends to 1/c at the origin (c > 0)
    out = np.empty_like(x)
    zero = x == 0.0
    if np.any(zero):
        if c <= 0.0:
            raise ValueError("kernel diverges at r = 0 for a = 1")
        out[zero] = 1.0 / c
    pos = ~zero
    if np.any(pos):
        xp = x[pos]
        if c > 0.0:
            out[pos] = xp**c * tabulated_upper_gamma(-c, xp)
        else:
            out[pos] = tabulated_upper_gamma(0.0, xp)
    return out


def _u_kernel(x):
    # x^{2/3} Gamma(1/3, x); vanishes at the origin
    out = np.empty_like(x)
    zero = x == 0.0
    out[zero] = 0.0
    pos = ~zero
    if np.any(pos):
        xp = x[pos]
        out[pos] = xp ** (2.0 / 3.0) * tabulated_upper_gamma(1.0 / 3.0, xp)
    return out


def _g_kernel_chain(a: float, x):
    c = (a - 1.0) / a
    e = np.exp(-x)
    t = _t_kernel(c, x)
    k0 = -t / a
    k1 = (e - (1.0 - a) * k0) / a
    k2 = -(x * e + k1) / a
    k3 = (x * x * e - (1.0 + a) * k2) / a
    return k0, k1, k2, k3


def _h_kernel_chain(x):
    e = np.exp(-x)
    t = _t_kernel(1.0 / 3.0, x)
    u = _u_kernel(x)
    k0 = 1.5 * e - 1.5 * u - t
    k1 = e - u - t / 3.0
    k2 = u / 3.0 + 2.0 * t / 9.0 - 2.0 * e / 3.0
    k3 = -(4.0 / 9.0) * u - (10.0 / 27.0) * t + (10.0 / 9.0) * e + x * e / 3.0
    return k0, k1, k2, k3


# Envelope constants: |atom(x)| <= C * e^{-x/2} on x >= 0.  For T with
# c > 0 the constant e/c follows from T <= 1/c on [0, 2] and
# T <= e^{-x}/x beyond; the c = 0 case (a = 1) only holds for x >= 1,
# which every tail cutoff exceeds.
_C_XE = 2.0 / math.e
_C_X2E = (4.0 / math.e) ** 2
_C_U = 2.0 ** (2.0 / 3.0) * _GAMMA_THIRD * math.e


def _c_t(c: float) -> float:
    return math.e / c if c > 0.0 else 1.0


def _g_envelopes(a: float):
    ct = _c_t((a - 1.0) / a)
    env0 = ct / a
    env1 = (1.0 + (a - 1.0) * env0) / a
    env2 = (_C_XE + env1) / a
    env3 = (_C_X2E + (1.0 + a) * env2) / a
    return env0, env1, env2, env3


def _h_envelopes():
    ct = _c_t(1.0 / 3.0)
    env0 = 1.5 + 1.5 * _C_U + ct
    env1 = 1.0 + _C_U + ct / 3.0
    env2 = _C_U / 3.0 + 2.0 * ct / 9.0 + 2.0 / 3.0
    env3 = 4.0 / 9.0 * _C_U + 10.0 / 27.0 * ct + 10.0 / 9.0 + _C_XE / 3.0
    return env0, env1, env2, env3


# the g and h families are angular-kernel profiles like f
OdeFamilyProfile = AngularProfile


@lru_cache(maxsize=32)
def _g_family_cached(xi_value: float, a: float) -> OdeFamilyProfile:
    return AngularProfile(
        xi_value, chain=lambda x: _g_kernel_chain(a, x), envelopes=_g_envelopes(a)
    )


def g_family(xi, a: float = 2.0) -> OdeFamilyProfile:
    """Family member solving (1 - a) g + a r g' = f for the given xi."""
    v = as_xi(xi).value
    a = float(a)
    if not (math.isfinite(a) and a >= 1.0):
        raise ValueError(f"a must be a finite real >= 1, got {a!r}")
    return _g_family_cached(v, a)


@lru_cache(maxsize=32)
def _h_family_cached(xi_value: float) -> OdeFamilyProfile:
    base = g_family(xi_value, 1.5)
    # scale chosen so -2 h + 3 r h' reproduces the normalized base exactly
    scale = -2.0 / (3.0 * base.normalization)
    return AngularProfile(
        xi_value, chain=_h_kernel_chain, envelopes=_h_envelopes(), scale=scale
    )


def h_family(xi) -> OdeFamilyProfile:
    """Second-layer family: -2 h + 3 r h' equals the normalized a = 3/2 member."""
    return _h_family_cached(as_xi(xi).value)


def functional_z(n: int, profile) -> float:
    """Expectation functional for 2n parties on a normalized profile."""
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    if getattr(profile, "max_derivative_order", 0) < n:
        raise ValueError(f"profile does not expose derivatives up to order {n}")
    ops = b_coefficients(n)
    coefs = (0.0,) + tuple(float(bk) for bk in ops.b)
    coeff, rate = profile.squared_combo_envelope(coefs)

    def integrand(r):
        vals = np.asarray(profile.derivative_combo(coefs, r))
        return vals * vals

    res = integrate_semi_infinite(integrand, _Z_TOL, rate, coeff)
    return float(ops.prefactor) * res.value


def z4_product(xi) -> UncertaintyReport:
    """Four-party product on the a = 2 family; approaches 1/30 as xi -> 1."""
    p = as_xi(xi)
    value = functional_z(2, g_family(p, 2.0))
    return UncertaintyReport(
        parties=4,
        xi=p,
        product=value,
        separable_bound=SEPARABLE_BOUND_4,
        infimum=PRODUCT_INFIMUM_4,
        violation_ratio=SEPARABLE_BOUND_4 / value,
        route="quadrature",
    )


def z6_product(xi) -> UncertaintyReport:
    """Six-party product on the layered family; approaches 35/4096 as xi -> 1."""
    p = as_xi(xi)
    value = functional_z(3, h_family(p))
    return UncertaintyReport(
        parties=6,
        xi=p,
        product=value,
        separable_bound=SEPARABLE_BOUND_6,
        infimum=PRODUCT_INFIMUM_6,
        violation_ratio=SEPARABLE_BOUND_6 / value,
        route="quadrature",
    )


def alpha_beta_certificate() -> float:
    """Worst residual of the two (alpha, beta) pairs in the six-party bound.

    Both sign choices must satisfy
    alpha^2 - 3 alpha beta + 54 alpha = 28 - 49 (5/8)^2 and
    beta^2 - 9 alpha - (45/2) beta = -261/2.
    """
    root = math.sqrt(74.0)
    first_rhs = 28.0 - 49.0 * (5.0 / 8.0) ** 2
    worst = 0.0
    for sign in (1.0, -1.0):
        alpha = 9.0 / 8.0 * (9.0 + sign * root)
        beta = 3.0 / 4.0 * (24.0 + sign * root)
        worst = max(
            worst,
            abs(alpha * alpha - 3.0 * alpha * beta + 54.0 * alpha - first_rhs),
            abs(beta * beta - 9.0 * alpha - 22.5 * beta + 130.5),
        )
    return worst
