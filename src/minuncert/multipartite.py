"""Multipartite functionals and the families that approach their infima.

The expectation functional for 2n parties is
z_2n = prefactor_n ||P_n(D) v||^2 / ||v||^2 with D = r d/dr and
P_n(D) = sum_k b_k D (D - 1) ... (D - k + 1) = (n^n / n!) prod_(j<n) (D - j/n).
The b table runs in exact rational arithmetic; ``checks`` evaluates P_n
from it at the integers and at its roots.

Every family is the two-party profile f under the first k factors
(D - j/n)^(-1), j = 1..k, of P_n, keyed by its roots (``Poles(n, k)``)
and scaled by c, and v_n = (n, n - 1) = prod_(j=1)^(n-1) (D - j/n)^(-1) f
makes P_n(D) v_n = (n^n / n!) D f, so z_2n = prefactor_n (n^n / n!)^2
||D f||^2 / ||v_n||^2 for every n.  Route A (``z_product``) takes
||D f||^2 = (1 + R)/2 in closed form and
||v||^2 = int rho_xi / prod_j ((1/2 + j/n)^2 + t^2) dt over the Mellin
density of f (``bipartite._mellin_density``), where D acts as -(1/2 + it).
Route B (``functional_z``) takes both norms on the radial rule, on Python
floats: r f' in closed form from Bessel kernels, held by the rule's mesh
(``bipartite._radial_mesh``), and each family from its chain, one cached
cumulative pass per xi and n (``_chain``) that holds (n, 0) = f, (n, 1),
..., (n, n - 1) = v_n by solving (D - k/n) v_k = v_(k-1) down the rule's
ln r panels with running integrals.  ``_rule_rows`` reads a key's rows
(v, its sibling (D - k/n) v) from its chain, and is the one place that
refuses n beyond ``ROUTE_B_MAX_N``.  At other radii the same pair of one
key is a Laplace average int_1^inf mu(u) f(u r) du on a rule of its own
per radius (``_laplace``, on numpy).  A family is an ``AngularProfile`` of
its two rows c v and c r v' = c ((k/n) v + (D - k/n) v);
``family(n, xi)`` is v_n's, with c = 1.  Every layer below the public
names takes the rule order as an argument, and only those names read
``bipartite._ANGULAR_ORDER``, so two orders are two calls in one process.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import bipartite
from ._lazy import np
from .bipartite import (_ANGULAR_ORDER, AngularProfile, UncertaintyReport, _count, _f_i0e,
                        _norm_sq, as_xi, r_closed)
from .quadrature import _gauss_legendre, dilation_rule, tail_matrix

__all__ = [
    "OperatorCoefficients",
    "OdeFamilyProfile",
    "b_coefficients",
    "family",
    "functional_z",
    "g_family",
    "h_family",
    "z_product",
    "z4_product",
    "z6_product",
    "alpha_beta_certificate",
]

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
    _count("n", n, 1, 12)
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


# ---------------------------------------------------------------------------
# the families, keyed by the roots of P_n they invert and scaled by c:
# g_2 = (1/2) (2, 1), g_3/2 = (2/3) (3, 1), h = (3, 2) / (3 ||(3, 1)||)
# and v_n = (n, n - 1)


class Poles(namedtuple("Poles", "n k")):
    """The family prod_(j=1)^k (D - j/n)^(-1) f of the chain n; (n, 0) is f itself."""

    __slots__ = ()

    @property
    def sibling(self):
        """(D - k/n) v: the key with k - 1."""
        return Poles(self.n, self.k - 1)


def _v_key(n: int, least: int = 2) -> Poles:
    """(n, n - 1), the key of v_n, for an int n >= ``least``; bools are refused."""
    return Poles(n, _count("n", n, least) - 1)


def _at_origin(key: Poles) -> float:
    """v(0) / f(0) = prod_j (-n/j) = (-n)^k / k!, the mass of mu, rounded once."""
    return (-key.n) ** key.k / math.factorial(key.k)


# nodes per block of a Laplace pass: at 4096 the per-call overhead of i0e's
# Horner steps made a pass 15-40% slower; at 32768 the peak RSS of
# `profile --parties 6` grew by 1.7 MB, at 16384 it stays where it was
_LAPLACE_BLOCK = 16384

# the largest n of route B, ``functional_z``, and so of ``--parties`` / 2
ROUTE_B_MAX_N = 5


def _weight(lu, key: Poles):
    """mu(u) of ``key`` at the nodes u = e^lu: the Laplace weight
    (-1)^k n^(k - 1) / (k - 1)! u^(-1 - 1/n) (1 - u^(-1/n))^(k - 1).

    Its Mellin transform int_1^inf mu(u) u^(-s) du is prod_j 1/(-s - j/n)
    (the Beta integral), so int_1^inf mu(u) f(u r) du is the family (DLMF
    8.6.4 under the angular integral).  1 - u^(-1/n) is taken as -expm1, so
    nothing cancels near u = 1.
    """
    n, k = key
    mu = (-1) ** k * n ** (k - 1) / math.factorial(k - 1) * np.exp((-1.0 - 1.0 / n) * lu)
    return mu * (-np.expm1(-lu / n)) ** (k - 1) if k > 1 else mu


def _laplace(xi: float, r, key: Poles, order: int):
    """(v, (D - k/n) v) of ``key`` at the radii r, arrays: its point values off the radial rule.

    One ``dilation_rule`` of ``order`` and one evaluation of f serve the
    weights of the key and of its sibling, which is f itself at k = 1.
    Each value depends on its own r alone.
    """
    keys = (key, key.sibling) if key.k > 1 else (key,)
    rows = [np.empty(len(r)) for _ in keys]
    t = bipartite._gamma0(xi)[0] * r
    # below t = 1e-300 (800 / t overflows) an average is its value at 0 to 1e-100
    origin = t < 1e-300
    f0 = _f_i0e(xi, r[origin])
    for row, each in zip(rows, keys):
        row[origin] = _at_origin(each) * f0
    pos = np.flatnonzero(~origin)
    for index, counts, y, weight in dilation_rule(t[pos], order, _LAPLACE_BLOCK):
        cols = pos[index]
        wf = weight * _f_i0e(xi, (1.0 + y) * np.repeat(r[cols], counts))
        starts = np.cumsum(counts) - counts
        lu = np.log1p(y)
        for row, each in zip(rows, keys):
            row[cols] = np.add.reduceat(_weight(lu, each) * wf, starts)
    return rows[0], (rows[1] if key.k > 1 else _f_i0e(xi, r))


@lru_cache(maxsize=32)
def _chain(xi: float, n: int, order: int):
    """(f, v_1, ..., v_(n-1)), the keys (n, 0..n - 1), on the radial rule of ``order``, tuples.

    (D - c) v_k = v_(k-1), c = k/n, has the decaying solution
    v_k(u) = -int_u^inf e^(-c (s - u)) v_(k-1)(s) ds in u = ln r.  The pass
    runs down the u-panels of half-width h of ``bipartite._radial_mesh``
    from the top of its continuation, where f has underflowed and v_k
    starts at 0.  On a panel with nodes u_i and top b,
    v_k(u_i) = e^(-c (b - u_i)) v_k(b) - h sum_j T_ij e^(-c (u_j - u_i)) v_(k-1)(u_j)
    with T = ``tail_matrix``, and the weights in place of T's row carry
    v_k to the panel below.  On [0, lo] every family is a polynomial in
    tau = (r / lo)^(1/n): f = f(0) (1 - alpha lo tau^n) to (alpha lo)^2,
    below 1e-24, and the solution maps tau^m to n tau^m / (m - k) (no m
    equals k < n) plus the tau^k that meets v_k(lo).  r, lo, h, f and
    f(0) come from the mesh of (xi, order), which every chain shares: one
    pass per xi, n and order, so a changed order is a fresh pass.
    """
    x, w = _gauss_legendre(order)
    mesh = bipartite._radial_mesh(xi, order)
    tau = [(radius / mesh.lo) ** (1.0 / n) for radius in mesh.r[:order]]
    alpha = (1.0 + xi) / (2.0 * (1.0 - xi))
    poly = {0: mesh.f0, n: -alpha * mesh.lo * mesh.f0}
    tail = tail_matrix(order)
    h = 0.5 * mesh.step
    out = [mesh.f[:len(mesh.r)]]
    prev = mesh.f
    for k in range(1, n):
        c = k / n
        rows = [[h * t * math.exp(c * h * (xa - xb)) for t, xb in zip(row, x)]
                for row, xa in zip(tail, x)]
        rows.append([h * wb * math.exp(-c * h * (1.0 + xb)) for wb, xb in zip(w, x)])
        decay = [math.exp(-c * h * (1.0 - xa)) for xa in x] + [math.exp(-c * mesh.step)]
        v = [0.0] * len(mesh.f)
        edge = 0.0  # v_k at the top of the panel
        for start in range(len(mesh.f) - order, 0, -order):
            g = prev[start:start + order]
            col = [edge * d - sum(map(mul, row, g)) for d, row in zip(decay, rows)]
            edge = col.pop()
            v[start:start + order] = col
        poly = {m: n * a / (m - k) for m, a in poly.items()}
        poly[k] = edge - sum(poly.values())
        v[:order] = [sum(a * t ** m for m, a in poly.items()) for t in tau]
        out.append(tuple(v[:len(mesh.r)]))
        prev = v
    return tuple(out)


def _rule_rows(xi: float, key: Poles):
    """(v, (D - k/n) v) of ``key``, k >= 1, on ``radial_rule(xi)``: two rows of its chain.

    Beyond ``ROUTE_B_MAX_N`` = 5, v_n tends to v_n(0) only like r^(1/n),
    which the rule's Gauss-Legendre panel on [0, lo], lo = 1e-12 / gamma(pi),
    does not integrate: the error shows in the norms (1.3e-13 in z at n = 6,
    1.9e-11 at n = 8), though the pass's values there are exact.
    """
    _count("n", key.n, 2, ROUTE_B_MAX_N,
           ": beyond, v_n keeps mass below the radial rule's lower end")
    chain = _chain(xi, key.n, _ANGULAR_ORDER)
    return chain[key.k], chain[key.k - 1]


def _family_profile(xi: float, c: float, key: Poles):
    """c times the family ``key``: rows v and r v' = (k/n) v + sibling, norm on route A."""
    a = key.k / key.n

    def rows(r):
        if r is None:
            v, sibling = _rule_rows(xi, key)
            return tuple(c * y for y in v), tuple(c * (a * y + s) for y, s in zip(v, sibling))
        v, sibling = _laplace(xi, r, key, _ANGULAR_ORDER)
        return c * np.array([v, a * v + sibling])

    norm = abs(c) * math.sqrt(_family_norms(xi, key, _ANGULAR_ORDER))
    return AngularProfile(xi, rows, norm=norm)


# every family's profile class, under the name the g and h families use
OdeFamilyProfile = AngularProfile


def _family_norms(xi: float, key: Poles, order: int):
    """||v||^2 = int rho / prod_j ((1/2 + j/n)^2 + t^2) dt of the family ``key`` on route A.

    One sum over the density of xi at the rule ``order``, which is cached;
    the sum itself is not.
    """
    t, terms = bipartite._mellin_density(xi, order)
    for j in range(1, key.k + 1):
        a2 = (0.5 + j / key.n) ** 2
        terms = [w / (a2 + s * s) for s, w in zip(t, terms)]
    return math.fsum(terms)


def family(n: int, xi) -> AngularProfile:
    """The profile of v_n = prod_(j=1)^(n-1) (D - j/n)^(-1) f, n >= 2, its norm on route A."""
    return _family_profile(as_xi(xi).value, 1.0, _v_key(n))


def g_family(xi, a: float = 2.0) -> OdeFamilyProfile:
    """(1/a) (D - 1/n)^(-1) f, n = a / (a - 1): (1 - a) g + a r g' = f for a = 2 or 3/2."""
    key = {2.0: Poles(2, 1), 1.5: Poles(3, 1)}.get(float(a))
    if key is None:
        raise ValueError(f"a must be 2 or 3/2, got {a!r}")
    return _family_profile(as_xi(xi).value, 1.0 / a, key)


def h_family(xi) -> OdeFamilyProfile:
    """(3, 2) / (3 ||(3, 1)||): -2 h + 3 r h' = (3, 1) / ||(3, 1)||, the normalized g_3/2."""
    v = as_xi(xi).value
    scale = 3.0 * math.sqrt(_family_norms(v, Poles(3, 1), _ANGULAR_ORDER))
    return _family_profile(v, 1.0 / scale, _v_key(3))


def _z(n: int, df2: float, v2: float) -> float:
    """z_2n from ||D f||^2 and ||v_n||^2: the factor prefactor_n (n^n / n!)^2
    = 3 n! n^(2n) / (3n)! is one int true division, the exact one rounded once.
    """
    return 3 * math.factorial(n) * n ** (2 * n) / math.factorial(3 * n) * df2 / v2


def z_product(n: int, xi) -> UncertaintyReport:
    """The 2n-party product on route A, with ||D f||^2 = (1 + R)/2 in closed form; n >= 1."""
    key = _v_key(n, 1)
    p = as_xi(xi)
    v2 = _family_norms(p.value, key, _ANGULAR_ORDER)
    return UncertaintyReport(2 * n, p, _z(n, 0.5 * (1.0 + r_closed(p)), v2), "mellin")


def functional_z(n: int, xi) -> float:
    """z_2n by the nested route: ||r f'|| and ||v_n|| on ``radial_rule(xi)``, n = 2..5.

    Both norms are sums on that rule, on floats, so neither the Mellin
    density nor the angular rule enters: r f' is the mesh's closed form in
    i0e and d (``bipartite._radial_mesh``) and v_n comes from its chain's
    cached cumulative pass, through ``_rule_rows``, which refuses n beyond
    ``ROUTE_B_MAX_N``.
    """
    v = as_xi(xi).value
    # not _v_key: _rule_rows refuses every n outside 2..ROUTE_B_MAX_N with the cap's message
    vn = _rule_rows(v, Poles(n, n - 1 if isinstance(n, int) else 0))[0]
    mesh = bipartite._radial_mesh(v, _ANGULAR_ORDER)
    return _z(n, _norm_sq(mesh.weight, mesh.rf), _norm_sq(mesh.weight, vn))


def z4_product(xi) -> UncertaintyReport:
    """Four-party product on g_2 = v_2 / 2; approaches 1/30 as xi -> 1."""
    return z_product(2, xi)


def z6_product(xi) -> UncertaintyReport:
    """Six-party product on h, a multiple of v_3; approaches 35/4096 as xi -> 1."""
    return z_product(3, xi)


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
