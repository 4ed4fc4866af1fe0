"""Two-party minimum-uncertainty family parametrized by xi in (0, 1).

Closed forms for the expectation functional and the uncertainty product,
the radial profile both in closed form and as the angular-kernel integral
that the four- and six-party families share, with the fixed angular rule
every such integral is taken on, the position wave function,
overlaps between family members, and the number-basis coefficient layer
with its exact combinatorial identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_2d, integrate_semi_infinite, panel_rule
from .specfun import Tolerance, binom, central_binomial, ellip_e, ellip_k, log_bessel_i0

__all__ = [
    "XiParameter",
    "AngularProfile",
    "UncertaintyReport",
    "SEPARABLE_BOUND_2",
    "PRODUCT_INFIMUM_2",
    "coeff",
    "r_closed",
    "uncertainty_product",
    "residual_norm_sq",
    "f_closed",
    "f_profile",
    "wavefunction",
    "overlap",
    "fock_coeff",
    "fock_normalization_defect",
    "shell_sum",
    "shell_identity_check",
]

SEPARABLE_BOUND_2 = 0.25
PRODUCT_INFIMUM_2 = 0.125

# Gauss-Legendre points per panel of the angular rule.  8 and 16 agree to
# ~7e-13 on the norms but only to ~1e-8 of a column's maximum on point
# values out to large r; 16 and 24 agree to ~1e-15 on both
_ANGULAR_ORDER = 16
# cells (radii x nodes) per kernel call of an angular pass: whole columns
# at once raise the peak memory of `profile --parties 6` by ~6 MB (~18%)
_RULE_BLOCK = 4096


@dataclass(frozen=True)
class XiParameter:
    """Family parameter, strictly inside (0, 1)."""

    value: float

    def __post_init__(self):
        v = self.value
        if not (isinstance(v, float) and math.isfinite(v) and 0.0 < v < 1.0):
            raise ValueError(f"xi must be a finite real strictly in (0, 1), got {v!r}")


def as_xi(xi) -> XiParameter:
    if isinstance(xi, XiParameter):
        return xi
    return XiParameter(float(xi))


@dataclass(frozen=True)
class UncertaintyReport:
    """One evaluated uncertainty product with its bounds.

    ``separable_bound`` is the threshold every separable state obeys,
    ``infimum`` the unreachable lower limit of the construction, and
    ``violation_ratio`` = separable_bound / product measures how strongly
    the bound is beaten.
    """

    parties: int
    xi: XiParameter
    product: float
    separable_bound: float
    infimum: float
    violation_ratio: float
    route: str

    def __post_init__(self):
        if self.parties % 2 != 0 or self.parties < 2:
            raise ValueError(f"parties must be a positive even integer, got {self.parties}")
        if not self.product > self.infimum:
            raise ValueError(
                f"product {self.product!r} at or below the infimum {self.infimum!r}"
            )
        # The two-party product provably stays under the separable bound;
        # the larger families exceed it at small xi, so no upper check there.
        if self.parties == 2 and not self.product < self.separable_bound:
            raise ValueError(
                f"two-party product {self.product!r} must stay below {self.separable_bound!r}"
            )
        expected = self.separable_bound / self.product
        if abs(self.violation_ratio - expected) > 1e-12 * abs(expected):
            raise ValueError("violation_ratio inconsistent with separable_bound / product")


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
    lo = 0.125 * eps
    panels = max(1, math.ceil(math.log2(math.pi / lo)))
    phi, weight = panel_rule(
        np.concatenate(([0.0], np.geomspace(lo, math.pi, panels + 1))), _ANGULAR_ORDER)
    half = np.sin(0.5 * phi)
    gamma = (eps * eps + 4.0 * sq * half * half) / (2.0 * gap)
    return gamma, weight


def _angular_kernel_integral(xi: float, r, kernel):
    """int w(theta) kernel(gamma(theta) r) dtheta over [0, pi], one value per r.

    w(theta) = 1 / (sqrt(2 pi K) (1 + sqrt(xi) cos theta)) and
    gamma(theta) = (1 - sqrt(xi) cos theta) / (2 (1 + sqrt(xi) cos theta)),
    taken on ``angular_rule``.  ``kernel`` receives blocks
    x[i, j] = r[i] * gamma_j of about ``_RULE_BLOCK`` cells, each row
    reduced on its own, so a value depends on its own r alone.
    """
    rv = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(rv < 0.0):
        raise ValueError("r must be nonnegative")
    gamma, weight = angular_rule(xi)
    rows = max(1, _RULE_BLOCK // len(gamma))
    values = np.empty(len(rv))
    for start in range(0, len(rv), rows):
        block = rv[start:start + rows]
        values[start:start + len(block)] = np.sum(
            weight * kernel(np.outer(block, gamma)), axis=-1)
    return values / math.sqrt(2.0 * math.pi * ellip_k(xi) * (1.0 - xi))


# Target of the outer radial pass of the nested route (``combo_norm``,
# ``rk_norm``, the functional built on them); the products take their
# norms from the swapped integration order instead.  The angular values
# under it are converged on ``angular_rule`` to ~1e-15 relative, so the
# radial pass alone sets the route's error.  The route is a cross-check
# and lands 4e-11 to 1e-10 from the products at xi = 0.5 and 0.9.  Near
# xi -> 1 the squared combinations fall off roughly like 1/r over many
# decades below the cutoff ~ 1/gamma(0), and bisecting [0, cutoff]
# stalls at xi = 1 - 1e-4 and 1 - 1e-6.
_NORM_TOL = Tolerance(abs_tol=1e-9, rel_tol=3e-7)


class AngularProfile:
    """Radial profile v(r) = scale * int w(theta) K(gamma(theta) r) dtheta.

    ``chain(x)`` returns (K_0, ..., K_3) at x = gamma r, where K_k is the
    kernel of r^k v^(k): each d/dr of K(gamma r), multiplied by r, stays a
    function of x alone.  ``envelopes[k]`` bounds |K_k(x)| by
    envelopes[k] * e^{-x/2} on x >= 0.

    ``value`` and ``derivative_combo`` refer to the normalized profile
    v/||v||, with ||v|| given as ``norm`` from a route independent of the
    nested pass (the closed form for f, the swapped integration order for
    the g and h families); the ``raw_`` accessor exposes the unnormalized
    v.  The raw solution keeps the sign the kernel dictates (negative at
    the origin for the plain ODE families), which is what makes a defining
    ODE hold verbatim; consumers that want a positive plot flip the sign.
    """

    max_derivative_order = 3

    def __init__(self, xi, chain, envelopes, norm: float, scale: float = 1.0):
        self.xi = as_xi(xi)
        self._chain = chain
        self._envelopes = tuple(envelopes)
        self._scale = float(scale)
        self._norm = float(norm)
        self._rk_norms = {}
        v = self.xi.value
        sq = math.sqrt(v)
        # gamma(0); squared combinations decay at least this fast
        self.decay_rate = 0.5 * (1.0 - sq) / (1.0 + sq)
        self._weight_mass_bound = math.pi / (
            math.sqrt(2.0 * math.pi * ellip_k(v)) * (1.0 - sq)
        )

    def raw_derivative_combo(self, coefs, r):
        """sum_k coefs[k] * r^k v^(k) for the unnormalized profile, in one angular pass."""
        if len(coefs) > self.max_derivative_order + 1:
            raise ValueError("combination exceeds the supported derivative order")
        terms = [(k, float(c)) for k, c in enumerate(coefs) if c != 0.0]

        def kernel(x):
            ks = self._chain(x)
            acc = np.zeros_like(x)
            for k, c in terms:
                acc += c * ks[k]
            return acc

        values = self._scale * _angular_kernel_integral(self.xi.value, r, kernel)
        return float(values[0]) if np.ndim(r) == 0 else values

    @property
    def normalization(self) -> float:
        """||v|| of the unnormalized profile, as given at construction."""
        return self._norm

    def combo_norm(self, coefs) -> float:
        """L2 norm of sum_k coefs[k] r^k v^(k) on [0, inf), unnormalized, by the nested pass.

        The nested pass is an adaptive radial integral with an angular
        pass at every radius.
        """
        coeff_, rate = self._raw_envelope(coefs)

        def integrand(r):
            vals = np.asarray(self.raw_derivative_combo(coefs, r))
            return vals * vals

        return math.sqrt(integrate_semi_infinite(integrand, _NORM_TOL, rate, coeff_).value)

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
        if k not in self._rk_norms:
            self._rk_norms[k] = self.combo_norm(tuple([0.0] * k + [1.0]))
        return self._rk_norms[k]

    def derivative_combo(self, coefs, r):
        """sum_k coefs[k] * r^k v^(k)(r) for the normalized profile."""
        return self.raw_derivative_combo(coefs, r) / self.normalization

    def _raw_envelope(self, coefs):
        amp = abs(self._scale) * self._weight_mass_bound * sum(
            abs(float(c)) * self._envelopes[k] for k, c in enumerate(coefs)
        )
        return amp * amp, self.decay_rate

    def squared_combo_envelope(self, coefs):
        """(C, lam) with |normalized combo|^2 <= C e^{-lam r} for all r."""
        coeff_, rate = self._raw_envelope(coefs)
        return coeff_ / self.normalization**2, rate


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


def uncertainty_product(xi, route: str = "closed_form") -> UncertaintyReport:
    """Two-party uncertainty product, by closed form or by 2-D quadrature.

    The quadrature route evaluates the double angular integral
    (1/(8 pi K)) iint (1 - xi cos^2 t)(1 - xi cos^2 t') /
    (1 - xi cos t cos t')^3 dt dt' over [0, pi]^2.
    """
    p = as_xi(xi)
    v = p.value
    if route == "closed_form":
        product = 0.25 + 0.25 * r_closed(v)
    elif route == "quadrature":
        kv = ellip_k(v)

        def integrand(t, tp):
            ct = np.cos(t)
            cp = math.cos(tp)
            return (1.0 - v * ct * ct) * (1.0 - v * cp * cp) / (1.0 - v * ct * cp) ** 3

        res = integrate_2d(integrand, (0.0, math.pi), (0.0, math.pi), Tolerance(abs_tol=1e-9))
        product = res.value / (8.0 * math.pi * kv)
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

    The modified-Bessel factor and the exponential are combined in log
    space, which stays stable up to xi very close to 1.
    """
    v = as_xi(xi).value
    rv = np.asarray(r, dtype=float)
    if np.any(rv < 0.0):
        raise ValueError("r must be nonnegative")
    alpha = 0.5 * (1.0 + v) / (1.0 - v)
    beta = math.sqrt(v) / (1.0 - v)
    log_front = 0.5 * (math.log(math.pi) - math.log(2.0 * ellip_k(v) * (1.0 - v)))
    out = np.exp(log_front + log_bessel_i0(beta * rv) - alpha * rv)
    return float(out) if rv.ndim == 0 else out


def _exp_chain(x):
    # r^k d^k/dr^k e^{-gamma r} = (-x)^k e^{-x} at x = gamma r
    e = np.exp(-x)
    return tuple((-x) ** k * e for k in range(4))


# sup over x >= 0 of x^k e^{-x/2} is (2k/e)^k
_EXP_CHAIN_ENVELOPES = (1.0, 2.0 / math.e, (4.0 / math.e) ** 2, (6.0 / math.e) ** 3)


def f_profile(xi) -> AngularProfile:
    """The two-party profile f as an angular integral of e^{-gamma r}.

    Independent of ``f_closed``; derivative combinations r^k f^(k) come
    from this route only.
    """
    return AngularProfile(xi, _exp_chain, _EXP_CHAIN_ENVELOPES, norm=1.0)


def wavefunction(x, y, xi):
    """Position wave function psi(x, y) = f(x^2 + y^2) / sqrt(pi)."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    s = xv * xv + yv * yv
    out = np.asarray(f_closed(xi, s)) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


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
    return ellip_k(math.sqrt(a * b)) / math.sqrt(ellip_k(a) * ellip_k(b))


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
