"""Two-party minimum-uncertainty family parametrized by xi in (0, 1).

Closed forms for the expectation functional and the uncertainty product,
the radial profile in closed form, as the angular-kernel integral and as
the cancellation-free C i0e(beta r) e^(-gamma0 r) that the four- and
six-party families average, with the fixed angular and radial rules
every integral is taken on, the position wave function,
overlaps between family members, and the number-basis coefficient layer
with its exact combinatorial identities.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._lazy import np
from .quadrature import graded_rule, log_rule
from .specfun import binom, central_binomial, ellip_e, ellip_k, i0e, log_i0e

__all__ = [
    "XiParameter",
    "AngularProfile",
    "radial_rule",
    "UncertaintyReport",
    "SEPARABLE_BOUND_2",
    "PRODUCT_INFIMUM_2",
    "coeff",
    "r_closed",
    "uncertainty_product",
    "residual_norm_sq",
    "f_closed",
    "f_profile",
    "overlap",
    "fock_coeff",
    "fock_normalization_defect",
    "shell_sum",
    "shell_identity_check",
]

SEPARABLE_BOUND_2 = 0.25
PRODUCT_INFIMUM_2 = 0.125

# Gauss-Legendre points per panel of the angular, radial and dilation
# rules.  On the angular rule 8 and 16 agree to ~7e-13 on the norms but
# only to ~1e-8 of a column's maximum on point values out to large r; 16
# and 24 agree to ~1e-15 on both, to ~4e-16 on the nested norms of the
# radial rule, and to ~1e-15 on the Laplace averages
_ANGULAR_ORDER = 16
# cells (radii x nodes) per kernel call of an angular pass: whole columns
# at once raise the peak memory of `profile --parties 6` by ~6 MB (~18%)
_RULE_BLOCK = 4096


class XiParameter(namedtuple("XiParameter", "value")):
    """Family parameter, strictly inside (0, 1)."""

    __slots__ = ()

    def __new__(cls, value):
        if not (isinstance(value, float) and math.isfinite(value) and 0.0 < value < 1.0):
            raise ValueError(f"xi must be a finite real strictly in (0, 1), got {value!r}")
        return super().__new__(cls, value)


def as_xi(xi) -> XiParameter:
    if isinstance(xi, XiParameter):
        return xi
    return XiParameter(float(xi))


class UncertaintyReport(namedtuple(
        "UncertaintyReport",
        "parties xi product separable_bound infimum violation_ratio route")):
    """One evaluated uncertainty product with its bounds.

    ``xi`` is the ``XiParameter`` it was evaluated at,
    ``separable_bound`` the threshold every separable state obeys,
    ``infimum`` the unreachable lower limit of the construction, and
    ``violation_ratio`` = separable_bound / product measures how strongly
    the bound is beaten.
    """

    __slots__ = ()

    def __new__(cls, parties, xi, product, separable_bound, infimum, violation_ratio, route):
        if parties % 2 != 0 or parties < 2:
            raise ValueError(f"parties must be a positive even integer, got {parties}")
        if not product > infimum:
            raise ValueError(f"product {product!r} at or below the infimum {infimum!r}")
        # The two-party product provably stays under the separable bound;
        # the larger families exceed it at small xi, so no upper check there.
        if parties == 2 and not product < separable_bound:
            raise ValueError(
                f"two-party product {product!r} must stay below {separable_bound!r}"
            )
        expected = separable_bound / product
        if abs(violation_ratio - expected) > 1e-12 * abs(expected):
            raise ValueError("violation_ratio inconsistent with separable_bound / product")
        return super().__new__(cls, parties, xi, product, separable_bound, infimum,
                               violation_ratio, route)


def angular_rule(xi: float):
    """(gamma, weight): the fixed rule of every angular-kernel integral at xi.

    The Poisson substitution cos phi = (cos theta + s) / (1 + s cos theta),
    s = sqrt(xi), makes the weight of the theta integral uniform,
    w dtheta = dphi / sqrt(2 pi K (1 - xi)), and gives
    gamma = (eps^2 + 4 s sin^2(phi/2)) / (2 (1 - xi)) with eps = 1 - s.
    gamma vanishes at phi = +-i eps, so every kernel in gamma r is
    analytic on each panel of a geometric phi-mesh from eps/8 to pi, and
    a Gauss-Legendre rule of ``_ANGULAR_ORDER`` points per panel converges
    geometrically on it.  ``weight`` carries dphi only; each consumer
    applies the density 1 / (2 pi K (1 - xi)) itself.
    """
    sq = math.sqrt(xi)
    gap = 1.0 - xi
    eps = gap / (1.0 + sq)  # 1 - sqrt(xi) without the cancellation
    phi, weight = graded_rule(0.125 * eps, math.pi, _ANGULAR_ORDER)
    half = np.sin(0.5 * phi)
    gamma = (eps * eps + 4.0 * sq * half * half) / (2.0 * gap)
    return gamma, weight


def radial_rule(xi: float):
    """(r, weight): the fixed rule of every radial integral over [0, inf) at xi.

    The angular kernels are functions of x = gamma r with gamma between
    gamma(0) = eps / (2 (1 + s)) and gamma(pi) = (1 + s) / (2 eps),
    s = sqrt(xi), eps = 1 - s.  In between lo = 1e-12 / gamma(pi) and
    hi = 24 / gamma(0), ``quadrature.log_rule`` takes Gauss-Legendre
    points in u = ln r on equal u-panels of ratio at most 4, each with
    ``_ANGULAR_ORDER`` points like ``angular_rule``: the integrand varies
    on the scale of ln r, and most of those decades lie where every x is
    small, so this takes half the radii of geometric r-panels of ratio 2.
    Beyond hi every x exceeds 24 and the squared combinations are gone
    to ~1e-14 of their mass.  One panel takes [0, lo], where every x is
    under 1e-12; the cube-root kernels are not analytic at x = 0 (terms
    in x^(1/3)), so that panel's error, which a second rule order does
    not see, grows like (lo gamma(pi))^(4/3): at 1e-8 instead of 1e-12
    it put 1.3e-13 into ||h|| at xi = 0.01, here it is below rounding.
    """
    sq = math.sqrt(xi)
    eps = (1.0 - xi) / (1.0 + sq)
    gamma_lo = 0.5 * eps / (1.0 + sq)
    gamma_hi = 0.5 * (1.0 + sq) / eps
    return log_rule(1e-12 / gamma_hi, 24.0 / gamma_lo, _ANGULAR_ORDER)


# kernel pairs per block of the tensor rule: with the 16 p points of the
# cube-root kernels every temporary stays at 128 kB, so the rule leaves
# the peak memory of a run where it was
_PAIR_BLOCK = 1024


def _swapped_norms(xi: float, m):
    """||v|| / |scale| of each kernel whose m(rho) ``m`` returns, radial integral first.

    For v(r) = scale int w(theta) K(gamma(theta) r) dtheta with
    int_0^inf K(gamma r) K(gamma' r) dr = m(rho) / max(gamma, gamma'), rho = min / max,
    ||v||^2 = scale^2 / (2 pi K (1 - xi)) iint_0^pi M dphi dphi' on the tensor product of
    ``angular_rule`` (w dtheta = dphi / sqrt(2 pi K (1 - xi))).  ``m`` returns one m(rho)
    array per kernel, so kernels that share their work share one call per block of pairs.
    """
    gam, wt = angular_rule(xi)
    # M is symmetric: pairs j > i count twice, the diagonal once
    n = len(gam)
    rows = max(1, _PAIR_BLOCK // n)
    totals = None
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))[:, None]
        j = np.arange(start, n)
        g_lo = np.minimum(gam[i], gam[j])
        g_hi = np.maximum(gam[i], gam[j])
        pair_w = wt[i] * wt[j] * np.where(j > i, 2.0, np.where(j == i, 1.0, 0.0))
        parts = [float(np.sum(pair_w * mk / g_hi)) for mk in m(g_lo / g_hi)]
        totals = parts if totals is None else [t + p for t, p in zip(totals, parts)]
    density = 2.0 * math.pi * ellip_k(xi) * (1.0 - xi)
    return tuple(math.sqrt(t / density) for t in totals)


def _angular_kernel_integral(xi: float, r, ks):
    """r^k f^(k)(r) = int w(theta) (-x)^k e^(-x) dtheta, x = gamma(theta) r, for each k in ``ks``.

    w(theta) = 1 / (sqrt(2 pi K) (1 + sqrt(xi) cos theta)) and
    gamma(theta) = (1 - sqrt(xi) cos theta) / (2 (1 + sqrt(xi) cos theta)),
    taken on ``angular_rule`` at the 1-D array of radii ``r`` in blocks
    x[i, j] = r[i] * gamma_j of about ``_RULE_BLOCK`` cells; each requested
    row is reduced row by row, so a value depends on its own r alone.
    One row per k, one column per r.
    """
    gamma, weight = angular_rule(xi)
    rows = max(1, _RULE_BLOCK // len(gamma))
    values = np.empty((len(ks), len(r)))
    for start in range(0, len(r), rows):
        block = r[start:start + rows]
        kernels = _exp_chain(np.outer(block, gamma))
        for i, k in enumerate(ks):
            values[i, start:start + len(block)] = np.sum(weight * kernels[k], axis=-1)
    return values / math.sqrt(2.0 * math.pi * ellip_k(xi) * (1.0 - xi))


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


def _f_i0e(xi: float, x):
    """The unit-norm f at the radii ``x`` as C i0e(beta x) e^(-gamma0 x), free of cancellation."""
    gap = 1.0 - xi
    front = math.sqrt(math.pi / (2.0 * ellip_k(xi) * gap))
    hi, lo = _gamma0(xi)
    return front * i0e((math.sqrt(xi) / gap) * x) * np.exp(-(hi * x + lo * x))


class AngularProfile:
    """Radial profile v(r) = scale * int w(theta) K(gamma(theta) r) dtheta.

    ``rows(r, ks)`` returns the rows r^k v^(k) / scale, k in ``ks``, at
    the radii ``r`` (one column per radius), and all four rows k = 0..3
    at the nodes of ``radial_rule`` when ``r`` is None.  For f the rows
    are angular passes of the kernels (-x)^k e^(-x); the g and h families
    take theirs from their ODEs and keep those on ``radial_rule``.

    ``value`` and ``derivative_combo`` refer to the normalized profile
    v/||v||, with ||v|| given as ``norm`` from a route independent of the
    nested pass (the closed form for f, the swapped integration order for
    the g and h families); the ``raw_`` accessor exposes the unnormalized
    v.  The raw solution keeps the sign the kernel dictates (negative at
    the origin for the plain ODE families), which is what makes a defining
    ODE hold verbatim; consumers that want a positive plot flip the sign.

    The nested norms combine the four rows on ``radial_rule``.
    """

    max_derivative_order = 3

    def __init__(self, xi, rows, norm: float, scale: float = 1.0):
        self.xi = as_xi(xi)
        self._rows = rows
        self._scale = float(scale)
        self._norm = float(norm)

    def _combine(self, coefs, rows):
        # scale * sum_k coefs[k] rows[k] over the nonzero coefficients.
        # No zero start and the scale last: a single term then keeps the
        # digits and the sign of zero a per-cell combination gave
        terms = [c * row for c, row in zip(coefs, rows) if c != 0.0]
        if not terms:
            return np.zeros(rows.shape[1])
        return self._scale * sum(terms[1:], terms[0])

    def _coefs(self, coefs):
        if len(coefs) > self.max_derivative_order + 1:
            raise ValueError("combination exceeds the supported derivative order")
        return [float(c) for c in coefs]

    def raw_derivative_combo(self, coefs, r):
        """sum_k coefs[k] * r^k v^(k) for the unnormalized profile.

        Only the rows with a nonzero coefficient are asked for.
        """
        terms = [(k, c) for k, c in enumerate(self._coefs(coefs)) if c != 0.0]
        rv = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(rv < 0.0):
            raise ValueError("r must be nonnegative")
        rows = self._rows(rv, [k for k, _ in terms])
        values = self._combine([c for _, c in terms], rows)
        return float(values[0]) if np.ndim(r) == 0 else values

    @property
    def normalization(self) -> float:
        """||v|| of the unnormalized profile, as given at construction."""
        return self._norm

    def combo_norm(self, coefs) -> float:
        """L2 norm of sum_k coefs[k] r^k v^(k) on [0, inf), unnormalized, by the nested pass.

        The nested pass sums the squared combination of the rows on
        ``radial_rule``.
        """
        weight = radial_rule(self.xi.value)[1]
        vals = self._combine(self._coefs(coefs), self._rows(None, range(4)))
        return math.sqrt(float(np.sum(weight * vals * vals)))

    def value(self, r):
        return self.derivative_combo((1.0,), r)

    def rk_norm(self, k: int) -> float:
        """L2 norm of r^k v^(k) on [0, inf) for the unnormalized profile.

        Always the nested pass, rk_norm(0) included, so it stays an
        independent check of a ``normalization`` given at construction.
        These norms are what the closed identities constrain (e.g. the
        a = 2 family satisfies 3 rk_norm(0)^2 + 4 rk_norm(1)^2 = 1).
        """
        if not (isinstance(k, int) and 0 <= k <= self.max_derivative_order):
            raise ValueError(f"derivative order must be an integer in [0, 3], got {k!r}")
        return self.combo_norm(tuple([0.0] * k + [1.0]))

    def derivative_combo(self, coefs, r):
        """sum_k coefs[k] * r^k v^(k)(r) for the normalized profile."""
        return self.raw_derivative_combo(coefs, r) / self.normalization


def coeff(n: int, xi) -> float:
    """Series coefficient c_n of the two-party family."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    v = as_xi(xi).value
    c0 = math.sqrt(math.pi / (2.0 * ellip_k(v)))
    if n == 0:
        return c0
    return c0 * central_binomial(n) * (v / 4.0) ** n


def r_closed(xi) -> float:
    """Closed form of the expectation functional R; negative on (0, 1)."""
    v = as_xi(xi).value
    return -1.0 / (1.0 + v) + ellip_e(v) / ((1.0 + v) ** 2 * ellip_k(v))


def _m_rf(rho):
    # m(rho) of r f', kernel -x e^-x: gamma gamma' int r^2 e^(-(gamma + gamma') r) dr
    # = 2 gamma gamma' / (gamma + gamma')^3 = m(rho) / max(gamma, gamma')
    return 2.0 * rho / (1.0 + rho) ** 3


def uncertainty_product(xi, route: str = "closed_form") -> UncertaintyReport:
    """Two-party uncertainty product, by closed form or by 2-D quadrature.

    The product is ||r f'||^2 / 2.  The quadrature route takes it as the
    double angular integral (1/(8 pi K)) iint (1 - xi cos^2 t)
    (1 - xi cos^2 t') / (1 - xi cos t cos t')^3 dt dt' over [0, pi]^2,
    which is ``_swapped_norms`` of the r f' kernel, on the tensor product
    of ``angular_rule``.
    """
    p = as_xi(xi)
    v = p.value
    if route == "closed_form":
        product = 0.25 + 0.25 * r_closed(v)
    elif route == "quadrature":
        product = 0.5 * _swapped_norms(v, lambda rho: (_m_rf(rho),))[0] ** 2
    else:
        raise ValueError(f"unknown route {route!r}")
    return UncertaintyReport(
        parties=2,
        xi=p,
        product=product,
        separable_bound=SEPARABLE_BOUND_2,
        infimum=PRODUCT_INFIMUM_2,
        violation_ratio=SEPARABLE_BOUND_2 / product,
        route=route,
    )


def residual_norm_sq(xi) -> float:
    """Squared norm of r f' + f/2; tends to 0 as xi approaches 1."""
    v = as_xi(xi).value
    kv = ellip_k(v)
    return (2.0 * ellip_e(v) - (1.0 - v * v) * kv) / (4.0 * (1.0 + v) ** 2 * kv)


def f_closed(xi, r):
    """Unit-norm two-party radial profile f(r) in closed form.

    Taken as C exp(log i0e(beta r) - gamma0 r): the growth of I0 and the decay
    e^(-alpha r), each of size r / (1 - xi), never meet, so nothing cancels as xi -> 1.
    """
    v = as_xi(xi).value
    rv = np.asarray(r, dtype=float)
    if np.any(rv < 0.0):
        raise ValueError("r must be nonnegative")
    beta = math.sqrt(v) / (1.0 - v)
    hi, lo = _gamma0(v)
    log_front = 0.5 * (math.log(math.pi) - math.log(2.0 * ellip_k(v) * (1.0 - v)))
    out = np.exp(log_front + log_i0e(beta * rv) - (hi * rv + lo * rv))
    return float(out) if rv.ndim == 0 else out


def _exp_chain(x):
    # r^k d^k/dr^k e^{-gamma r} = (-x)^k e^{-x} at x = gamma r
    # products, not float powers: an array pow costs several times the rest
    e = np.exp(-x)
    m = -x
    return e, m * e, (m * m) * e, (m * m * m) * e


def f_profile(xi) -> AngularProfile:
    """The two-party profile f as an angular integral of e^{-gamma r}.

    Independent of ``f_closed``; derivative combinations r^k f^(k) come
    from this route only.
    """
    v = as_xi(xi).value

    def rows(r, ks):
        return _angular_kernel_integral(v, radial_rule(v)[0] if r is None else r, ks)

    return AngularProfile(v, rows, norm=1.0)


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
    # a table over a grid takes K once per grid value
    return ellip_k(math.sqrt(a * b)) / math.sqrt(ka * kb)


def fock_coeff(n: int, m: int, xi) -> float:
    """Number-basis coefficient at (n, m).

    Nonzero only when n and m are both multiples of 4 or both twice an
    odd number, i.e. (n mod 4, m mod 4) in {(0, 0), (2, 2)}.
    """
    for label, val in (("n", n), ("m", m)):
        if not (isinstance(val, int) and val >= 0):
            raise ValueError(f"{label} must be a nonnegative integer, got {val!r}")
    v = as_xi(xi).value
    if (n % 4, m % 4) not in ((0, 0), (2, 2)):
        return 0.0
    q = (n + m) // 2
    c0 = math.sqrt(math.pi / (2.0 * ellip_k(v)))
    inner = binom(n, n // 2) * binom(m, m // 2)
    return c0 * math.sqrt(inner) * binom(q, q // 2) * (v / 16.0) ** (q // 2)


def shell_sum(big_n: int, xi) -> float:
    """Total squared coefficient mass on the shell n + m = 4N."""
    if not (isinstance(big_n, int) and big_n >= 0):
        raise ValueError(f"N must be a nonnegative integer, got {big_n!r}")
    v = as_xi(xi).value
    c = binom(2 * big_n, big_n)
    return math.pi / (2.0 * ellip_k(v)) * float(c * c) * (v * v / 16.0) ** big_n


_MAX_TAIL_SHELLS = 100000


def fock_normalization_defect(xi, max_total: int) -> float:
    """1 minus the squared-coefficient mass with n + m <= max_total.

    Computed directly as the analytic tail over the remaining shells,
    which keeps full precision where the naive 1 - sum loses everything.
    """
    if not (isinstance(max_total, int) and max_total >= 4):
        raise ValueError(f"max_total must be an integer >= 4, got {max_total!r}")
    v = as_xi(xi).value
    u = v * v / 4.0
    full_shells = max_total // 4
    # term_N = binom(2N, N)^2 (xi^2/16)^N via its ratio recurrence
    term = 1.0
    for n in range(full_shells + 1):
        term *= ((2 * n + 1) / (n + 1)) ** 2 * u
    total = 0.0
    # shell ratios tend to xi^2, so the shell count needed grows like 1 / (1 - xi)
    for n in range(full_shells + 1, full_shells + 1 + _MAX_TAIL_SHELLS):
        total += term
        term *= ((2 * n + 1) / (n + 1)) ** 2 * u
        if term < 1e-30 * total:
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
    if not (isinstance(n_max, int) and n_max >= 1):
        raise ValueError(f"N_max must be an integer >= 1, got {n_max!r}")
    for big_n in range(n_max + 1):
        even = sum(
            binom(4 * k, 2 * k) * binom(4 * big_n - 4 * k, 2 * big_n - 2 * k)
            for k in range(big_n + 1)
        )
        odd = sum(
            binom(4 * k + 2, 2 * k + 1) * binom(4 * big_n - 4 * k - 2, 2 * big_n - 2 * k - 1)
            for k in range(big_n)
        )
        if even + odd != 2 ** (4 * big_n):
            return False
    return True
