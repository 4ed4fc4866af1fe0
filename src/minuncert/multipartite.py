"""Four- and six-party functionals and their ODE-constructed families.

The expectation functional for 2n parties is
z_2n = prefactor_n ||P_n(D) v||^2 / ||v||^2 with D = r d/dr and
P_n(D) = sum_k b_k D (D - 1) ... (D - k + 1) = (n^n / n!) prod_(j<n) (D - j/n).
The b table, the factorial matrix pair behind it, and the vanishing
Pochhammer residuals run in exact rational arithmetic.  The near-optimal
families solve (1 - a) v + a r v' = base.  Each is an ``AngularProfile``
of its two rows v and r v' (h's times its scale): every point value is a
Laplace average int_1^inf mu(u) f(u r) du of the two-party profile f,
taken on a rule of its own per radius, and r v' follows algebraically
from the ODE.

The family norms come from route A, the Mellin density rho_xi of f
(``bipartite._mellin_density``): on the Mellin line D is a
multiplication, so each norm is one sum of rho_xi against a rational
function of t.  The products z4 and z6 take the closed-form ||D f|| over
those norms.  The nested route, ``functional_z``, stays as the
independent check: the ODEs make P_n(D) v a multiple of D f, so it takes
||r f'|| and ||v|| on the radial rule and no derivative of the family.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from . import bipartite
from ._lazy import np
from .bipartite import AngularProfile, UncertaintyReport, _f_i0e, as_xi, r_closed
from .quadrature import dilation_rule

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


class OperatorCoefficients(namedtuple("OperatorCoefficients", "b prefactor")):
    """Exact coefficient table of the order-n differential operator.

    ``b`` is the tuple b_1, ..., b_n and ``prefactor`` a ``Fraction``.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.b)


@lru_cache(maxsize=16)
def b_coefficients(n: int) -> OperatorCoefficients:
    if not (isinstance(n, int) and 1 <= n <= 12):
        raise ValueError(f"n must be an integer in [1, 12], got {n!r}")
    from fractions import Fraction  # exact tables only; it loads decimal too

    table = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += Fraction((-1) ** j * math.comb(k, j) * math.comb(j * n, n))
        table.append(Fraction((-1) ** k, math.factorial(k)) * acc)
    return OperatorCoefficients(
        b=tuple(table),
        prefactor=Fraction(3 * math.factorial(n) ** 3, math.factorial(3 * n)),
    )


def _float_prefactor(n: int) -> float:
    """``float(b_coefficients(n).prefactor)`` without importing fractions.

    The true division of two ints is correctly rounded, so this is the
    exact prefactor rounded once, bit for bit the float of the Fraction.
    """
    return 3 * math.factorial(n) ** 3 / math.factorial(3 * n)


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
# With D = r d/dr the ODE reads (1 - a) v + a D v = b, so the row
# D v = (b - (1 - a) v) / a follows from v and b, and no higher row is
# ever needed: (D - 1/2) g_2 = f / 2, (D - 1/3) g_3/2 = 2 f / 3 and
# (D - 2/3) h = -g_3/2 / 2 turn every P_n(D) v into a multiple of D f.

_G2, _G32, _H, _RF = range(4)
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


def _ode_step(a: float, v, b):
    """[v, r v'] of (1 - a) v + a r v' = b, from v and b."""
    return np.array([v, (b - (1.0 - a) * v) / a])


def _family_rows(xi: float, r):
    """(g_2, g_3/2, h): each the rows v / scale and r v' / scale at the radii r.

    f comes from the same closed form as the averages: the ODE step
    cancels as r -> 0, and exactly so at r = 0, where r v' vanishes.
    """
    g2, g32, h = _laplace(xi, r)
    f = _f_i0e(xi, r)
    return _ode_step(2.0, g2, f), _ode_step(1.5, g32, f), _ode_step(3.0, h, -1.5 * g32)


@lru_cache(maxsize=32)
def _radial_family_rows(xi: float, order: int):
    """(g_2, g_3/2, h, r f') on ``radial_rule(xi)``, read-only.

    The ``_family_rows`` and f's angular row r f': one pass per xi and
    rule order (``_ANGULAR_ORDER``, which sets every rule), so a changed
    order is a fresh pass, never a cached one.
    """
    r = bipartite.radial_rule(xi)[0]
    rows = (*_family_rows(xi, r), bipartite._angular_kernel_integral(xi, r)[1])
    for row in rows:
        row.flags.writeable = False
    return rows


def _family_profile(xi: float, family: int, norm: float, scale: float = 1.0):
    def rows(r):
        if r is None:
            return scale * _radial_family_rows(xi, bipartite._ANGULAR_ORDER)[family]
        return scale * _family_rows(xi, r)[family]

    return AngularProfile(xi, rows, norm=norm)


# the g and h families share f's profile class
OdeFamilyProfile = AngularProfile


@lru_cache(maxsize=32)
def _family_norms(xi: float, order: int):
    """(||g_2||, ||g_3/2||, ||h / scale||) at xi, each one sum over route A's density.

    (D - 1/2) g_2 = f / 2, (D - 1/3) g_3/2 = 2 f / 3 and (D - 2/3) h = -g_3/2 / 2,
    and D acts as -(1/2 + it) on the Mellin line (``bipartite._mellin_density``),
    so ||g_2||^2 = (1/4) int rho / (1 + t^2),
    ||g_3/2||^2 = (4/9) int rho / ((5/6)^2 + t^2) and
    ||h / scale||^2 = (1/9) int rho / (((5/6)^2 + t^2) ((7/6)^2 + t^2)).
    One set per xi and rule order (``_ANGULAR_ORDER``).
    """
    t, wrho = bipartite._mellin_density(xi, order)
    t2 = [s * s for s in t]
    g32 = [w / ((5.0 / 6.0) ** 2 + s2) for s2, w in zip(t2, wrho)]
    return (0.5 * math.sqrt(math.fsum(w / (1.0 + s2) for s2, w in zip(t2, wrho))),
            (2.0 / 3.0) * math.sqrt(math.fsum(g32)),
            (1.0 / 3.0) * math.sqrt(math.fsum(w / ((7.0 / 6.0) ** 2 + s2)
                                              for s2, w in zip(t2, g32))))


def g_family(xi, a: float = 2.0) -> OdeFamilyProfile:
    """Family member solving (1 - a) g + a r g' = f for the given xi, a = 2 or 3/2."""
    v = as_xi(xi).value
    a = float(a)
    if a not in (2.0, 1.5):
        raise ValueError(f"a must be 2 or 3/2, got {a!r}")
    g2, g32, _ = _family_norms(v, bipartite._ANGULAR_ORDER)
    return _family_profile(v, _G2, g2) if a == 2.0 else _family_profile(v, _G32, g32)


def h_family(xi) -> OdeFamilyProfile:
    """Second-layer family: -2 h + 3 r h' equals the normalized a = 3/2 member."""
    v = as_xi(xi).value
    _, g32, h = _family_norms(v, bipartite._ANGULAR_ORDER)
    # scale chosen so -2 h + 3 r h' reproduces the normalized base exactly
    scale = -2.0 / (3.0 * g32)
    return _family_profile(v, _H, abs(scale) * h, scale)


# the family of z_2n and c^2 with P_n(D) v = c D f: P_2(D) g_2 = D f and,
# on the unscaled h, P_3(D) h = (9/2) D (D - 1/3)(D - 2/3) h = -(3/2) D f
_NESTED = {2: (_G2, 1.0), 3: (_H, 2.25)}


def functional_z(n: int, xi) -> float:
    """z_2n = prefactor_n c^2 ||r f'||^2 / ||v||^2 by the nested route, n = 2 or 3.

    v is g_2 or h / scale.  Both norms are sums over ``radial_rule(xi)``
    of one cached pass, so no Mellin density enters.
    """
    if not (isinstance(n, int) and n in _NESTED):
        raise ValueError(f"n must be 2 or 3, got {n!r}")
    v = as_xi(xi).value
    family, c2 = _NESTED[n]
    rows = _radial_family_rows(v, bipartite._ANGULAR_ORDER)
    weight = bipartite.radial_rule(v)[1]
    rf, base = rows[_RF], rows[family][0]
    return (_float_prefactor(n) * c2 * float(np.sum(weight * rf * rf))
            / float(np.sum(weight * base * base)))


def z4_product(xi) -> UncertaintyReport:
    """Four-party product on the a = 2 family; approaches 1/30 as xi -> 1.

    z4 = (1/30) (1 + R)/2 / ||g_2||^2 with the closed-form R and the
    norm of route A: about 14 digits, at every xi from 1e-6 to 1 - 1e-15.
    """
    p = as_xi(xi)
    norm = g_family(p, 2.0).normalization
    half_rf = 0.5 * (1.0 + r_closed(p))  # ||r f'||^2 of the two-party profile
    value = _float_prefactor(2) * half_rf / (norm * norm)
    return UncertaintyReport(4, p, value, "mellin")


def z6_product(xi) -> UncertaintyReport:
    """Six-party product on the layered family; approaches 35/4096 as xi -> 1.

    z6 = (1/560) (1 + R)/2 / (||g_3/2||^2 ||h||^2) with the norms of
    route A, to the same digits as ``z4_product``.
    """
    p = as_xi(xi)
    g_norm = g_family(p, 1.5).normalization
    h_norm = h_family(p).normalization
    half_rf = 0.5 * (1.0 + r_closed(p))
    value = _float_prefactor(3) * half_rf / (g_norm * g_norm * h_norm * h_norm)
    return UncertaintyReport(6, p, value, "mellin")


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
