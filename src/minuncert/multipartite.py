"""Four- and six-party functionals and their ODE-constructed families.

The expectation functional for 2n parties is a prefactored integral of
(sum_k b_k r^k f^(k))^2.  The b table, the factorial matrix pair behind
it, and the vanishing Pochhammer residuals run in exact rational
arithmetic.  The near-optimal families solve (1 - a) v + a r v' = base.
Each point value is a Laplace average int_1^inf mu(u) f(u r) du of the
two-party profile f, taken on a rule of its own per radius; every
derivative r^k v^(k) follows algebraically from the ODE and the
derivatives of f, never taken numerically.

The family norms are computed with the integration order swapped (the
radial integral first, in closed form), and the products z4 and z6 come
from the shortcut identities on those norms.  The nested route,
``functional_z``, a fixed radial rule over the rows of one shared
Laplace pass, stays as the independent check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import bipartite
from ._lazy import np
from .bipartite import (
    AngularProfile, UncertaintyReport, _f_i0e, _swapped_norms, as_xi, r_closed)
from .quadrature import dilation_rule, panel_rule
from .specfun import binom

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


class OperatorCoefficients(namedtuple("OperatorCoefficients", "n b prefactor")):
    """Exact coefficient table of the order-n differential operator.

    ``b`` is the tuple b_1, ..., b_n and ``prefactor`` a ``Fraction``.
    """

    __slots__ = ()


@lru_cache(maxsize=16)
def b_coefficients(n: int) -> OperatorCoefficients:
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    from fractions import Fraction  # exact tables only; it loads decimal too

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
    from fractions import Fraction

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


def pochhammer_root_residual(n: int, j: int):
    """sum_k b_k (j/n)(j/n - 1)...(j/n - k + 1) as a Fraction; exactly zero for 0 <= j < n.

    The vanishing falling-factorial sums are precisely why the monomials
    r^(j/n) are annihilated by the operator, so no non-normalizable
    kernel element can masquerade as a profile.
    """
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    if not (isinstance(j, int) and 0 <= j < n):
        raise ValueError(f"j must be an integer in [0, n), got {j!r}")
    from fractions import Fraction

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
# the families as Laplace averages of f
#
# Each family member is a dilation average v(r) = int_1^inf mu(u) f(u r) du
# of the two-party profile (DLMF 8.6.4 under the angular integral) and
# solves (1 - a) v + a r v' = b:
#   g_2:    mu = -(1/2) u^(-3/2),     a = 2,   b = f;
#   g_3/2:  mu = -(2/3) u^(-4/3),     a = 3/2, b = f;
#   h:      mu = u^(-5/3) - u^(-4/3), a = 3,   b = int_1^inf u^(-4/3) f(u r) du
#           = -(3/2) g_3/2, and h carries ``scale``.
# At r = 0 the average is f(0) int mu = -f(0), -2 f(0), -(3/2) f(0).
# Applying D = r d/dr k times to (1 - a) V_0 + a D V_0 = B_0 gives
# (1 + (k - 1) a) V_k + a V_(k+1) = B_k for the rows V_k = r^k v^(k) and
# B_k of b, so every V_k with k >= 1 follows from V_0 and the rows of f.

_G2, _G32, _H = range(3)
_LAPLACE_AT_ORIGIN = (-1.0, -2.0, -1.5)
# nodes per block of a Laplace pass: at 4096 the per-call overhead of i0e's
# Horner steps made a pass 15-40% slower; at 32768 the peak RSS of
# `profile --parties 6` grew by 1.7 MB, at 16384 it stays where it was
_LAPLACE_BLOCK = 16384


def _dilation_weights(y):
    """mu(1 + y) of g_2, g_3/2 and h, the h weight without cancellation near u = 1."""
    lu = np.log1p(y)
    u43 = np.exp((-4.0 / 3.0) * lu)
    return -0.5 * np.exp(-1.5 * lu), (-2.0 / 3.0) * u43, u43 * np.expm1(-lu / 3.0)


def _laplace(xi: float, r):
    """int_1^inf mu(u) f(u r) du of g_2, g_3/2 and h at the radii r, rows (3, len(r)).

    One ``dilation_rule`` and one evaluation of f serve the three
    weights.  Each value depends on its own r alone.
    """
    out = np.empty((3, len(r)))
    t = bipartite._gamma0(xi)[0] * r
    # below t = 1e-300 (800 / t overflows) an average is its value at 0 to 1e-100
    origin = t < 1e-300
    out[:, origin] = np.multiply.outer(_LAPLACE_AT_ORIGIN, _f_i0e(xi, r[origin]))
    pos = np.flatnonzero(~origin)
    for index, counts, y, weight in dilation_rule(t[pos], bipartite._ANGULAR_ORDER,
                                                  _LAPLACE_BLOCK):
        cols = pos[index]
        wf = weight * _f_i0e(xi, (1.0 + y) * np.repeat(r[cols], counts))
        starts = np.cumsum(counts) - counts
        for row, mu in zip(out, _dilation_weights(y)):
            row[cols] = np.add.reduceat(mu * wf, starts)
    return out


def _ode_rows(a: float, v0, base):
    """[V_0, ..., V_n] of (1 - a) v + a r v' = b, from V_0 and the rows B_0..B_(n-1) of b."""
    rows = [v0]
    for k, bk in enumerate(base):
        rows.append((bk - (1.0 + (k - 1) * a) * rows[-1]) / a)
    return rows


def _family_rows(xi: float, r, depth: int):
    """(g_2, g_3/2, h): each the rows r^k v^(k) / scale, k <= depth, at the radii r.

    f itself comes from the same closed form as the averages and r^k f^(k),
    k >= 1, from its angular pass: the first ODE step cancels as r -> 0,
    and exactly so at r = 0, where every r^k v^(k) with k >= 1 vanishes.
    """
    g2, g32, h = _laplace(xi, r)
    f_rows = [_f_i0e(xi, r)] if depth else []
    if depth > 1:
        f_rows += list(bipartite._angular_kernel_integral(xi, r, range(1, depth)))
    g32_rows = _ode_rows(1.5, g32, f_rows)
    h_base = [-1.5 * row for row in g32_rows[:depth]]
    return (np.array(_ode_rows(2.0, g2, f_rows)), np.array(g32_rows),
            np.array(_ode_rows(3.0, h, h_base)))


@lru_cache(maxsize=32)
def _radial_family_rows(xi: float, order: int):
    """``_family_rows`` of the three families on ``radial_rule(xi)``, read-only.

    One pass per xi and rule order (``_ANGULAR_ORDER``, which sets every
    rule): a changed order is a fresh pass, never a cached one.
    """
    rows = _family_rows(xi, bipartite.radial_rule(xi)[0], 3)
    for family in rows:
        family.flags.writeable = False
    return rows


def _family_profile(xi: float, family: int, norm: float, scale: float = 1.0):
    def rows(r, ks):
        if r is None:
            return _radial_family_rows(xi, bipartite._ANGULAR_ORDER)[family]
        ks = list(ks)
        return _family_rows(xi, r, max(ks, default=0))[family][ks]

    return AngularProfile(xi, rows, norm=norm, scale=scale)


# ---------------------------------------------------------------------------
# swapped-order norms
#
# Every family is an angular integral of the kernel
# K(x) = int_1^inf mu(u) e^(-x u) du of its Laplace average above, so
# integrating the product of two kernels over r first gives
#     M(gamma, gamma') = iint mu(u) mu(v) / (gamma u + gamma' v) du dv,
# homogeneous of degree -1: M = m(rho) / max(gamma, gamma') with
# rho = min / max <= 1.  u = p^(-1/c) maps u^(-c-1) du to dp / c on [0, 1]:
#   a = 2 (c = 1/2):    m = 4 iint p^2 q^2 / (q^2 + rho p^2), in closed form;
#   a = 3/2 (c = 1/3):  m = 9 iint p^3 q^3 / (q^3 + rho p^3);
#   h (mu = u^(-5/3) - u^(-4/3), without the scale):
#                       m = 9 iint (p - 1)(q - 1) p^3 q^3 / (q^3 + rho p^3).

# (k - atan k) / k^3 = sum_n (-1)^n k^(2n) / (2n + 3), highest power first;
# 30 terms reach 1e-20 at k = 1/2
_ATAN_TAIL = tuple((-1.0) ** n / (2 * n + 3) for n in range(29, -1, -1))


def _m_g2(rho):
    """m(k) = 1 - k pi/2 + k atan k + (k - atan k)/k^3 at k = sqrt(rho)."""
    k = np.sqrt(rho)
    at = np.arctan(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(k < 0.5, np.polyval(_ATAN_TAIL, k * k), (k - at) / k**3)
    return 1.0 - 0.5 * math.pi * k + k * at + tail


# Gauss-Legendre points of the p integral of the cube-root kernels: the
# integrand is analytic in p within |p| < rho^(-1/3), and 16 points agree
# with mpmath to ~1e-15 at every rho in (0, 1]
_CUBE_ROOT_POINTS = 16


@lru_cache(maxsize=1)
def _p_rule():
    """(p, p^3 w): the read-only p rule of the cube-root kernels."""
    p, w = panel_rule((0.0, 1.0), _CUBE_ROOT_POINTS)
    p3w = p**3 * w
    p.flags.writeable = False
    p3w.flags.writeable = False
    return p, p3w


def _cube_root_parts(rho):
    """(p, p^3 w, beta, F0, F1) on the p rule, for the q integrals at B = beta^3 = rho p^3.

    int_0^1 q^3 / (q^3 + B) dq = 1 - beta F0 and
    int_0^1 (q - 1) q^3 / (q^3 + B) dq = -1/2 - beta (beta F1 - F0),
    from the elementary antiderivatives of 1/(t^3 + 1) and t/(t^3 + 1),
    arranged without cancellation for small beta.
    """
    p, p3w = _p_rule()
    beta = np.cbrt(rho)[..., None] * p
    log_part = np.log1p(3.0 * beta / (1.0 - beta + beta * beta)) / 6.0
    root3 = math.sqrt(3.0)
    atan_part = (2.0 * math.pi / 3.0 - np.arctan(root3 * beta / (2.0 - beta))) / root3
    return p, p3w, beta, atan_part + log_part, atan_part - log_part


def _m_g32_h(rho):
    """(m of g_3/2, m of h) at rho, from one ``_cube_root_parts``."""
    p, p3w, beta, f0, f1 = _cube_root_parts(rho)
    return (9.0 * np.sum(p3w * (1.0 - beta * f0), axis=-1),
            9.0 * np.sum((p - 1.0) * p3w * (-0.5 - beta * (beta * f1 - f0)), axis=-1))


# the g and h families are angular-kernel profiles like f
OdeFamilyProfile = AngularProfile


@lru_cache(maxsize=32)
def _g2_norm(xi_value: float) -> float:
    # ||g_2||, the four-party product's norm
    return 0.5 * _swapped_norms(xi_value, lambda rho: (_m_g2(rho),))[0]


@lru_cache(maxsize=32)
def _cube_root_norms(xi_value: float):
    # (||g_3/2||, ||h||) / |scale|: the cube-root kernels share one pass
    return _swapped_norms(xi_value, _m_g32_h)


def g_family(xi, a: float = 2.0) -> OdeFamilyProfile:
    """Family member solving (1 - a) g + a r g' = f for the given xi, a = 2 or 3/2."""
    v = as_xi(xi).value
    a = float(a)
    if a == 2.0:
        return _family_profile(v, _G2, _g2_norm(v))
    if a == 1.5:
        return _family_profile(v, _G32, (1.0 / a) * _cube_root_norms(v)[0])
    raise ValueError(f"a must be 2 or 3/2, got {a!r}")


def h_family(xi) -> OdeFamilyProfile:
    """Second-layer family: -2 h + 3 r h' equals the normalized a = 3/2 member."""
    v = as_xi(xi).value
    g32, h = _cube_root_norms(v)
    # scale chosen so -2 h + 3 r h' reproduces the normalized base exactly
    scale = -2.0 / (3.0 * ((1.0 / 1.5) * g32))
    return _family_profile(v, _H, abs(scale) * h, scale)


def functional_z(n: int, profile) -> float:
    """Expectation functional for 2n parties, by the nested route.

    The integral of (sum_k b_k r^k v^(k))^2 and the norm of v both come
    from the nested pass (``combo_norm``, ``rk_norm(0)``, the rows of one
    Laplace pass per xi and rule order), so the result does not depend on
    the ``normalization`` the profile was given.
    """
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    if getattr(profile, "max_derivative_order", 0) < n:
        raise ValueError(f"profile does not expose derivatives up to order {n}")
    ops = b_coefficients(n)
    coefs = (0.0,) + tuple(float(bk) for bk in ops.b)
    norm = profile.rk_norm(0)
    return float(ops.prefactor) * (profile.combo_norm(coefs) / norm) ** 2


def _report(parties, p, value, bound, infimum) -> UncertaintyReport:
    return UncertaintyReport(
        parties=parties,
        xi=p,
        product=value,
        separable_bound=bound,
        infimum=infimum,
        violation_ratio=bound / value,
        route="shortcut",
    )


def z4_product(xi) -> UncertaintyReport:
    """Four-party product on the a = 2 family; approaches 1/30 as xi -> 1.

    From the shortcut identity z4 = (1/30) (1 + R)/2 / ||g_2||^2 with the
    closed-form R and the swapped-order norm: about 14 digits, at every
    xi up to 1 - 1e-12.
    """
    p = as_xi(xi)
    norm = g_family(p, 2.0).normalization
    half_rf = 0.5 * (1.0 + r_closed(p))  # ||r f'||^2 of the two-party profile
    value = float(b_coefficients(2).prefactor) * half_rf / (norm * norm)
    return _report(4, p, value, SEPARABLE_BOUND_4, PRODUCT_INFIMUM_4)


def z6_product(xi) -> UncertaintyReport:
    """Six-party product on the layered family; approaches 35/4096 as xi -> 1.

    From the shortcut identity z6 = (1/560) (1 + R)/2 / (||g_3/2||^2 ||h||^2)
    with the swapped-order norms, to the same digits as ``z4_product``.
    """
    p = as_xi(xi)
    g_norm = g_family(p, 1.5).normalization
    h_norm = h_family(p).normalization
    half_rf = 0.5 * (1.0 + r_closed(p))
    value = float(b_coefficients(3).prefactor) * half_rf / (g_norm * g_norm * h_norm * h_norm)
    return _report(6, p, value, SEPARABLE_BOUND_6, PRODUCT_INFIMUM_6)


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
