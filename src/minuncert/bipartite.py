"""Two-party minimum-uncertainty family parametrized by xi in (0, 1).

Closed forms for the expectation functional and the uncertainty product,
the radial profile in closed form, as the angular-kernel integral and as
the cancellation-free C i0e(beta r) e^(-gamma0 r) that the four- and
six-party families average, with its r f' as the positive sum
-C r e^(-gamma0 r) (beta d(beta r) + gamma0 i0e(beta r)), d = i0e - i1e,
with the fixed angular and radial rules
every integral is taken on, the Mellin density rho_xi of f that gives
the quadrature route of the product and every family norm, the position
wave function, overlaps between family members, and the number-basis
coefficient layer with its exact combinatorial identities.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from ._lazy import np
from .quadrature import _gauss_legendre, log_rule, panel_rule
from .specfun import _ellip_ke, ellip_k, i0e, i0e_minus_i1e, log_i0e

__all__ = [
    "XiParameter",
    "AngularProfile",
    "radial_rule",
    "UncertaintyReport",
    "r_closed",
    "uncertainty_product",
    "residual_norm_sq",
    "f_closed",
    "overlap",
    "fock_coeff",
    "fock_normalization_defect",
    "shell_sum",
    "shell_identity_check",
]

# Gauss-Legendre points per panel of the angular, radial, dilation and
# t-rules.  On the angular rule 8 and 16 agree to ~7e-13 on the norms but
# only to ~1e-8 of a column's maximum on point values out to large r; 16
# and 24 agree to ~1e-15 on both, to ~4e-16 on the nested norms of the
# radial rule, and to ~1e-15 on the Laplace averages.  A constant: every
# layer below the public entry points takes its order as an argument
_ANGULAR_ORDER = 16


class XiParameter(namedtuple("XiParameter", "value")):
    """Family parameter, strictly inside (0, 1)."""

    __slots__ = ()

    def __new__(cls, value):
        if not (isinstance(value, float) and math.isfinite(value) and 0.0 < value < 1.0):
            raise ValueError(f"xi must be a finite real strictly in (0, 1), got {value!r}")
        return super().__new__(cls, value)


def _count(name: str, value, least: int = 0, most: float = math.inf, why: str = "") -> int:
    """``value`` if an int, not a bool, in [least, most]; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not (isinstance(value, int) and least <= value <= most):
        span = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}{why}")
    return value


def as_xi(xi) -> XiParameter:
    if isinstance(xi, XiParameter):
        return xi
    return XiParameter(float(xi))


class UncertaintyReport(namedtuple("UncertaintyReport", "parties xi product route")):
    """One evaluated uncertainty product; its bounds follow from ``parties``.

    ``xi`` is the ``XiParameter`` it was evaluated at and ``route`` how the
    product was taken.  For N = 2n parties, ``separable_bound`` = 2^(-N) is
    the threshold every separable state obeys, ``infimum`` the unreachable
    lower limit of the construction, and ``violation_ratio`` =
    separable_bound / product measures how strongly the bound is beaten.
    """

    __slots__ = ()

    def __new__(cls, parties, xi, product, route):
        if _count("parties", parties, 2) % 2 != 0:
            raise ValueError(f"parties must be a positive even integer, got {parties}")
        report = super().__new__(cls, parties, xi, product, route)
        if not product > report.infimum:
            raise ValueError(f"product {product!r} at or below the infimum {report.infimum!r}")
        # The two-party product provably stays under the separable bound;
        # the larger families exceed it at small xi, so no upper check there.
        if parties == 2 and not product < report.separable_bound:
            raise ValueError(
                f"two-party product {product!r} must stay below {report.separable_bound!r}"
            )
        return report

    @property
    def separable_bound(self) -> float:
        return 2.0 ** -self.parties

    @property
    def infimum(self) -> float:
        """3 n! prod_(k<n) (n + 2k)^2 / ((3n)! 4^n) for n = parties / 2, rounded once.

        That is prefactor_n P_n(-1/2)^2 (``multipartite``): 1/8, 1/30 and
        35/4096 for 2, 4 and 6 parties, as one int true division.
        """
        n = self.parties // 2
        num = 3 * math.factorial(n) * math.prod(n + 2 * k for k in range(n)) ** 2
        return num / (math.factorial(3 * n) * 4**n)

    @property
    def violation_ratio(self) -> float:
        return self.separable_bound / self.product


def angular_rule(xi: float, order: int):
    """(gamma, weight): the fixed rule of every angular-kernel integral at xi.

    The Poisson substitution cos phi = (cos theta + s) / (1 + s cos theta),
    s = sqrt(xi), makes the weight of the theta integral uniform,
    w dtheta = dphi / sqrt(2 pi K (1 - xi)), and gives
    gamma = (eps^2 + 4 s sin^2(phi/2)) / (2 (1 - xi)) with eps = 1 - s.
    gamma vanishes near phi = +-i eps, so every kernel in gamma r is
    analytic on a strip about the real axis of u = ln phi, and
    ``quadrature.log_rule`` takes [0, eps/8], then ``order``
    Gauss-Legendre points on equal u-panels of ratio at most 2.5 up to
    pi.  The ratio is set by W_xi(t) of route A, whose phase t ln gamma
    it resolves up to t ~ 11: there the density meets mpmath's conical
    function to 7e-14, while ratio 3 misses by 6e-11 and ratio 4 already
    by 1.8e-11 at t = 8.9.  ``weight`` carries dphi only; each consumer
    applies the density 1 / (2 pi K (1 - xi)) itself.  Both are tuples of
    floats, gamma ascending.
    """
    sq = math.sqrt(xi)
    gap = 1.0 - xi
    eps = gap / (1.0 + sq)  # 1 - sqrt(xi) without the cancellation
    phi, weight = log_rule(0.125 * eps, math.pi, order, 2.5)
    halves = [math.sin(0.5 * p) for p in phi]
    gamma = tuple((eps * eps + 4.0 * sq * h * h) / (2.0 * gap) for h in halves)
    return gamma, weight


def radial_rule(xi: float):
    """(r, weight): the fixed rule of every radial integral over [0, inf) at xi.

    The angular kernels are functions of x = gamma r with gamma between
    gamma(0) = eps / (2 (1 + s)) and gamma(pi) = (1 + s) / (2 eps),
    s = sqrt(xi), eps = 1 - s.  In between lo = 1e-12 / gamma(pi) and
    hi = 24 / gamma(0), ``quadrature.log_rule`` takes Gauss-Legendre
    points in u = ln r on equal u-panels of ratio at most 4, each with
    ``_ANGULAR_ORDER`` = 16 points, the order of every public entry point
    (``_radial_mesh`` lays out any other order): the integrand varies
    on the scale of ln r, and most of those decades lie where every x is
    small, so this takes half the radii of geometric r-panels of ratio 2.
    The ratio comes from the strip |Im u| < pi/2 on which a function
    analytic for Re r > 0 is analytic in u: a u-panel of width ln 4 has a
    Bernstein ellipse of parameter 4.7 inside it (16 points:
    ~4.7^-32 = 2e-22), against 3.3 at ratio 8 (2e-17, seen as 1.2e-14 in
    a nested z4 at xi = 1e-6).
    Beyond hi every x exceeds 24 and the squared combinations are gone
    to ~1e-14 of their mass.  One panel takes [0, lo], where every x is
    under 1e-12; the cube-root kernels are not analytic at x = 0 (terms
    in x^(1/3)), so that panel's error, which a second rule order does
    not see, grows like (lo gamma(pi))^(4/3): at 1e-8 instead of 1e-12
    it put 1.3e-13 into ||h|| at xi = 0.01, here it is below rounding.
    Route B's ``_radial_mesh`` continues the u-panels and holds f on them,
    and r f' in closed form on the rule.  Both are tuples of floats, r
    ascending.
    """
    return _radial_mesh(xi, _ANGULAR_ORDER)[:2]


# gamma0 r beyond which f has underflowed, so route B's running integrals start at 0
_F_UNDERFLOW = 800.0
_RadialMesh = namedtuple("_RadialMesh", "r weight lo step f0 f rf")


@lru_cache(maxsize=32)
def _radial_mesh(xi: float, order: int):
    """Route B's mesh: the radial rule (r, weight) of ``order`` points per panel, its
    lower end lo, its u-panel width step, f(0), f = C i0e(beta r) e^(-gamma0 r) on the
    rule and on panels of the same width continued until gamma0 r passes
    ``_F_UNDERFLOW``, and r f' on the rule.  r f' is
    -C r e^(-gamma0 r) (beta d(beta r) + gamma0 i0e(beta r)) with
    d = ``specfun.i0e_minus_i1e``, a sum of two positive terms, so nothing cancels
    at any xi; it shares each radius's i0e and exponential with f, whose bits are
    those of ``_f_i0e``.  One per xi and order, tuples of floats, so every chain and
    row that reads f or r f' on the rule shares one evaluation of them.
    """
    sq = math.sqrt(xi)
    eps = (1.0 - xi) / (1.0 + sq)
    # lo = 1e-12 / gamma(pi) and hi = 24 / gamma(0) of ``radial_rule``
    lo, hi = 1e-12 / (0.5 * (1.0 + sq) / eps), 24.0 / (0.5 * eps / (1.0 + sq))
    r, weight = log_rule(lo, hi, order, 4.0)
    top = math.log(hi)
    step = (top - math.log(lo)) / (len(r) // order - 1)
    front, beta, g_hi, g_lo = _f_scales(xi)
    extra = math.ceil(math.log(_F_UNDERFLOW / (g_hi * hi)) / step)
    beyond = panel_rule([top + p * step for p in range(extra + 1)], order)[0]
    f, rf = [], []
    for x in r + tuple(map(math.exp, beyond)):
        i0, e = i0e(beta * x), math.exp(-(g_hi * x + g_lo * x))
        f.append(front * i0 * e)
        if len(rf) < len(r):
            rf.append(-front * x * e * (beta * i0e_minus_i1e(beta * x) + g_hi * i0))
    # f(0) = C i0e(0) e^0 = C
    return _RadialMesh(r, weight, lo, step, front, tuple(f), tuple(rf))


def _angular_kernel_integral(xi: float, r, order: int):
    """The rows (f, r f') at the radii ``r``, floats, as two tuples.

    r^k f^(k)(r) = int w(theta) (-x)^k e^(-x) dtheta for k = 0, 1, with
    x = gamma(theta) r, w(theta) = 1 / (sqrt(2 pi K) (1 + sqrt(xi) cos theta))
    and gamma(theta) = (1 - sqrt(xi) cos theta) / (2 (1 + sqrt(xi) cos theta)),
    taken on ``angular_rule`` of ``order`` radius by radius on Python floats;
    both rows share the radius's terms w e^(-x), so a value depends on its own r alone.
    f's one angular pass, uncached: ``verify``'s check of the closed f and r f' reads
    it, and no product or profile does.
    """
    gamma, weight = angular_rule(xi, order)
    norm = math.sqrt(2.0 * math.pi * ellip_k(xi) * (1.0 - xi))
    f, rf = [], []
    for radius in r:
        terms = [w * math.exp(-g * radius) for g, w in zip(gamma, weight)]
        f.append(sum(terms) / norm)
        rf.append(-radius * sum(map(mul, terms, gamma)) / norm)
    return tuple(f), tuple(rf)


# beyond t = 13, rho_xi(t) <= rho_xi(0) sech(pi t) < 4e-18 rho_xi(0), and
# |W_xi|^2 oscillates at frequencies up to span = ln(gamma_max / gamma_min):
# span + 16 equal panels of [0, 13] agree with 6.5 span + 40 panels of 24
# points to 4.4e-16 on int rho, int (1/4 + t^2) rho and ||v_n||^2, n = 2..5, at
# seven xi from 1e-6 to 1 - 1e-15 (test_t_rule_meets_a_heavy_rule); span + 12
# is off by 1.3e-14 at xi = 0.05
_T_MAX = 13.0


@lru_cache(maxsize=32)
def _mellin_density(xi: float, order: int):
    """(t, weight rho) of route A: rho_xi(t) = sech(pi t) |W_xi(t)|^2 on its t-rule, as tuples.

    On the Mellin line s = 1/2 + it, f^(s) = Gamma(s) W_xi(t) with
    W_xi(t) = int w gamma^(-1/2 - it) dtheta, taken on ``angular_rule``, and
    |Gamma(s)|^2 = pi sech(pi t).  D = r d/dr acts as -s, so by Parseval a
    profile with P(D) v = c f has ||v||^2 = c^2 int_0^inf rho / |P(-s)|^2 dt:
    int rho = ||f||^2 = 1 and int (1/4 + t^2) rho = ||D f||^2.  rho is a
    squared conical function, pi sech(pi t) P_(-1/2+it)(Z)^2 / (K (1 - xi))
    with Z = (1 + xi) / (1 - xi) (DLMF 14.20).

    The t-rule has equal panels of half-width h with ``order``
    Gauss-Legendre points each, t = c_p + h x_k, so cos and sin of
    t ln gamma_j follow by angle addition from one row of c_p ln gamma_j
    per panel and one row of h x_k ln gamma_j per node x_k > 0, built once
    per xi: about 1/16 of the transcendental calls of a (t x gamma) grid,
    on Python floats.  The nodes +-x_k share the four dot products of a
    panel's row with the node's.  One density per xi and rule ``order``, which
    the angular rule shares, like the radial rows; tuples keep it read-only.
    """
    gamma, weight = angular_rule(xi, order)
    log_gamma = [math.log(g) for g in gamma]
    amp = [w / math.sqrt(g) for w, g in zip(weight, gamma)]
    panels = math.ceil(log_gamma[-1] - log_gamma[0]) + 16
    h = 0.5 * _T_MAX / panels
    x, w = _gauss_legendre(order)
    mid = order // 2  # x[mid:] >= 0 (x[mid] = 0 for an odd order); -x_k mirror them
    nodes = [(h * xk, h * wk, [math.cos(h * xk * lg) for lg in log_gamma],
              [math.sin(h * xk * lg) for lg in log_gamma]) for xk, wk in zip(x[mid:], w[mid:])]
    norm = 2.0 * math.pi * ellip_k(xi) * (1.0 - xi)
    t, wrho = [], []
    for p in range(panels):
        c = (2 * p + 1) * h
        ca = [a * math.cos(c * lg) for a, lg in zip(amp, log_gamma)]
        sa = [a * math.sin(c * lg) for a, lg in zip(amp, log_gamma)]
        lower, upper = [], []
        for hx, hw, cos_row, sin_row in nodes:
            # sum amp cos and sum amp sin of (c +- hx) ln gamma, by angle addition
            cc, ss = sum(map(mul, ca, cos_row)), sum(map(mul, sa, sin_row))
            sc, cs = sum(map(mul, sa, cos_row)), sum(map(mul, ca, sin_row))
            upper.append((c + hx, hw, (cc - ss) ** 2 + (sc + cs) ** 2))
            if hx > 0.0:
                lower.append((c - hx, hw, (cc + ss) ** 2 + (sc - cs) ** 2))
        for tk, hw, w2 in (*reversed(lower), *upper):
            t.append(tk)
            wrho.append(hw * w2 / (math.cosh(math.pi * tk) * norm))
    return tuple(t), tuple(wrho)


def _gamma0(xi: float):
    """gamma(0) = (1 - xi) / (2 (1 + sqrt(xi))^2) as hi + lo, from integer arithmetic.

    e^(-gamma0 x) reaches gamma0 x ~ 50 within the profiles' range, where
    the one ulp a float evaluation may lose would cost 6e-15 relative.
    """
    n, d = xi.as_integer_ratio()
    bits = 1 << 128
    root = math.isqrt(n * d * bits * bits)  # sqrt(xi) d 2^128
    num = (d - n) * d * bits * bits
    den = 2 * (d * bits + root) ** 2
    hi = num / den  # int division rounds correctly
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _f_scales(xi: float):
    """(C, beta, gamma0 hi, gamma0 lo) of the unit-norm f = C i0e(beta r) e^(-gamma0 r)."""
    gap = 1.0 - xi
    return (math.sqrt(math.pi / (2.0 * ellip_k(xi) * gap)), math.sqrt(xi) / gap) + _gamma0(xi)


def _f_i0e(xi: float, x):
    """The unit-norm f at the radii ``x`` as C i0e(beta x) e^(-gamma0 x), free of cancellation.

    ``x`` is an array, or a tuple of floats, which gives a list of floats.
    """
    front, beta, hi, lo = _f_scales(xi)
    if isinstance(x, tuple):
        return [front * i0e(beta * r) * math.exp(-(hi * r + lo * r)) for r in x]
    return front * i0e(beta * x) * np.exp(-(hi * x + lo * x))


class AngularProfile:
    """Radial profile v(r) of a family (n, k), given by its two rows v and r v'.

    ``rows(r)`` gives (v, r v') of the unnormalized profile at the radii
    ``r``, or on ``radial_rule`` when ``r`` is None.  The family takes
    r v' = (k/n) v + (D - k/n) v from the key (n, k - 1) of its chain,
    whose (n, 0) is f: on ``radial_rule`` from route B's one cached pass of
    running integrals per chain on the mesh's f, and at other radii from
    Laplace averages int_1^inf mu(u) f(u r) du of f (``multipartite``).
    Every identity of the paper links ||v|| and ||r v'|| only, so no
    product needs another row (``functional_z``).

    ``normalization`` is ||v||, given at construction by a route
    independent of the nested pass (route A's Mellin density), and
    ``value`` the normalized profile v / ||v||.  The raw rows keep the
    sign the kernel dictates (negative at the origin for the plain ODE
    families), which is what makes a defining ODE hold verbatim;
    consumers that want a positive plot flip the sign.
    """

    def __init__(self, xi, rows, norm: float):
        self.xi = as_xi(xi)
        self._rows = rows
        self._norm = float(norm)

    def rows(self, r=None):
        """(v, r v') of the unnormalized profile at the radii ``r`` (a scalar or
        1-D array) as an array, or on ``radial_rule`` as two tuples of floats.

        The validated radii reach the family as a 1-D float array.
        """
        if r is None:
            return self._rows(None)
        rv = _radii(r)
        if rv.ndim > 1:
            raise ValueError(f"r must be a scalar or a 1-D array, got {rv.ndim} dimensions")
        out = self._rows(np.atleast_1d(rv))
        return out[:, 0] if rv.ndim == 0 else out

    @property
    def normalization(self) -> float:
        """||v|| of the unnormalized profile, as given at construction."""
        return self._norm

    def value(self, r):
        """v(r) / ||v||: a float for a scalar ``r``, else an array."""
        v = self.rows(r)[0] / self._norm
        return float(v) if np.ndim(r) == 0 else v

    def rk_norm(self, k: int) -> float:
        """L2 norm of row ``k`` (v or r v') on [0, inf), by the nested pass on ``radial_rule``.

        Taken for k = 0 too, so it stays an independent check of the
        ``normalization`` given at construction.  These norms are what the
        closed identities constrain (e.g. the a = 2 family satisfies
        3 rk_norm(0)^2 + 4 rk_norm(1)^2 = 1).
        """
        k = _count("k", k, 0, 1)
        return math.sqrt(_norm_sq(radial_rule(self.xi.value)[1], self._rows(None)[k]))


def _norm_sq(weight, row) -> float:
    """sum weight row^2 of a row on ``radial_rule``, on floats, correctly rounded."""
    return math.fsum(w * y * y for w, y in zip(weight, row))


def r_closed(xi) -> float:
    """Closed form of the expectation functional R; negative on (0, 1)."""
    v = as_xi(xi).value
    kv, ev = _ellip_ke(v)
    return -1.0 / (1.0 + v) + ev / ((1.0 + v) ** 2 * kv)


def uncertainty_product(xi, route: str = "closed_form") -> UncertaintyReport:
    """Two-party uncertainty product, by closed form or by quadrature.

    The product is ||r f'||^2 / 2.  The quadrature route takes it on the
    Mellin line as (1/2) int (1/4 + t^2) rho_xi(t) dt (``_mellin_density``).
    """
    p = as_xi(xi)
    v = p.value
    if route == "closed_form":
        product = 0.25 + 0.25 * r_closed(v)
    elif route == "quadrature":
        t, wrho = _mellin_density(v, _ANGULAR_ORDER)
        product = 0.5 * math.fsum(w * (0.25 + s * s) for s, w in zip(t, wrho))
    else:
        raise ValueError(f"unknown route {route!r}")
    return UncertaintyReport(2, p, product, route)


def residual_norm_sq(xi) -> float:
    """Squared norm of r f' + f/2; tends to 0 as xi approaches 1."""
    v = as_xi(xi).value
    kv, ev = _ellip_ke(v)
    return (2.0 * ev - (1.0 - v * v) * kv) / (4.0 * (1.0 + v) ** 2 * kv)


def _radii(r):
    """``r`` as a float array, refused unless every radius is finite and >= 0."""
    rv = np.asarray(r, dtype=float)
    if not np.all((rv >= 0.0) & (rv < math.inf)):
        raise ValueError("r must be finite and nonnegative")
    return rv


def f_closed(xi, r):
    """Unit-norm two-party radial profile f(r) in closed form.

    Taken as C exp(log i0e(beta r) - gamma0 r): the growth of I0 and the decay
    e^(-alpha r), each of size r / (1 - xi), never meet, so nothing cancels as xi -> 1.
    A Python float ``r`` gives a float from ``math`` alone.
    """
    v = as_xi(xi).value
    beta = math.sqrt(v) / (1.0 - v)
    hi, lo = _gamma0(v)
    log_front = 0.5 * (math.log(math.pi) - math.log(2.0 * ellip_k(v) * (1.0 - v)))
    if isinstance(r, (int, float)):
        if not 0.0 <= r < math.inf:
            raise ValueError("r must be finite and nonnegative")
        return math.exp(log_front + log_i0e(beta * r) - (hi * r + lo * r))
    rv = _radii(r)
    out = np.exp(log_front + log_i0e(beta * rv) - (hi * rv + lo * rv))
    return float(out) if rv.ndim == 0 else out


def _xi_or_zero(v) -> float:
    if isinstance(v, XiParameter):
        return v.value
    v = float(v)
    if v == 0.0:
        return 0.0
    return XiParameter(v).value


def overlap(xi, xi_prime) -> float:
    """State overlap between two family members; symmetric, in (0, 1].

    Either argument may be exactly 0, meaning the two-mode vacuum.
    """
    a = _xi_or_zero(xi)
    b = _xi_or_zero(xi_prime)
    return _overlap(a, b, ellip_k(a), ellip_k(b))


def _overlap(a: float, b: float, ka: float, kb: float) -> float:
    # K(sqrt(ab)) / sqrt(K(a) K(b)), with ka = K(a) and kb = K(b) given, so
    # a table over a grid takes K once per grid value.  K(sqrt(ab)) starts
    # from its complementary modulus sqrt(1 - ab) = sqrt((1 - lo) + lo (1 - hi)),
    # a sum of positive terms in one order, so the value is symmetric (K reads
    # it alone); rounding sqrt(ab) first would lose up to 1.1e-11 near a, b -> 1
    lo, hi = sorted((a, b))
    k = _ellip_ke(0.0, math.sqrt((1.0 - lo) + lo * (1.0 - hi)), with_e=False)[0]
    return k / math.sqrt(ka * kb)


def _central(k: int) -> float:
    """b_k = C(2k, k) / 4^k in (0, 1], as one correctly rounded int true division."""
    return math.comb(2 * k, k) / 4**k


def fock_coeff(n: int, m: int, xi) -> float:
    """Number-basis coefficient at (n, m).

    Nonzero only when n and m are both multiples of 4 or both twice an
    odd number, i.e. (n mod 4, m mod 4) in {(0, 0), (2, 2)}.
    """
    q = (_count("n", n) + _count("m", m)) // 2
    v = as_xi(xi).value
    central = {k: _central(k) for k in (n // 2, m // 2, q // 2)}
    return _fock_coeff(n, m, v, math.sqrt(math.pi / (2.0 * ellip_k(v))), central)


def _fock_coeff(n: int, m: int, v: float, c0: float, central) -> float:
    # fock_coeff with c0 = sqrt(pi / (2 K(v))) and central[k] = b_k given,
    # so a table takes K once per grid value and each b_k once; every factor
    # but xi^(q/2) lies in (0, 1], so it underflows only where the value does
    if (n % 4, m % 4) not in ((0, 0), (2, 2)):
        return 0.0
    q = (n + m) // 2
    return c0 * math.sqrt(central[n // 2] * central[m // 2]) * central[q // 2] * v ** (q // 2)


def shell_sum(big_n: int, xi) -> float:
    """Total squared coefficient mass on the shell n + m = 4N: (pi / (2K)) (b_N xi^N)^2."""
    _count("N", big_n)
    v = as_xi(xi).value
    return math.pi / (2.0 * ellip_k(v)) * (_central(big_n) * v**big_n) ** 2


_MAX_TAIL_SHELLS = 100000


def fock_normalization_defect(xi, max_total: int) -> float:
    """1 minus the squared-coefficient mass with n + m <= max_total.

    Computed directly as the analytic tail over the remaining shells,
    which keeps full precision where the naive 1 - sum loses everything.
    """
    first = _count("max_total", max_total, 4) // 4 + 1
    v = as_xi(xi).value
    # (b_N xi^N)^2 from the first shell left out, then by the shell ratio,
    # which tends to xi^2 (so the count grows like 1 / (1 - xi)); a term
    # that underflows ends the sum
    term = (_central(first) * v**first) ** 2
    total = 0.0
    for n in range(first, first + _MAX_TAIL_SHELLS):
        total += term
        term *= ((2 * n + 1) / (2 * n + 2) * v) ** 2
        if term <= 1e-30 * total:
            break
    else:
        raise RuntimeError(
            f"normalization tail at xi={v!r} not converged after {_MAX_TAIL_SHELLS} shells"
        )
    return math.pi / (2.0 * ellip_k(v)) * total


def shell_identity_check(n_max: int) -> bool:
    """Check the exact-integer shell identity S_N = 2^(4N) for N <= n_max.

    S_N is evaluated brute force as the two residue-class convolutions
    of central binomials.  Exact arithmetic throughout.
    """
    for big_n in range(_count("N_max", n_max, 1) + 1):
        even = sum(
            math.comb(4 * k, 2 * k) * math.comb(4 * big_n - 4 * k, 2 * big_n - 2 * k)
            for k in range(big_n + 1)
        )
        odd = sum(
            math.comb(4 * k + 2, 2 * k + 1)
            * math.comb(4 * big_n - 4 * k - 2, 2 * big_n - 2 * k - 1)
            for k in range(big_n)
        )
        if even + odd != 2 ** (4 * big_n):
            return False
    return True
