"""Self-contained special-function kernel.

Complete elliptic integrals in the modulus convention (the squared modulus
multiplies sin^2 in the defining integral), the dilogarithm on [0, 1],
the logarithm of the modified Bessel function I0, the upper incomplete
gamma function including negative non-integer order, and exact integer
binomials.

Scalar arguments are Python floats.  The functions that appear inside
integration kernels (``log_bessel_i0``, ``upper_gamma``) also accept
numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "ellip_k",
    "ellip_e",
    "dilog",
    "log_bessel_i0",
    "upper_gamma",
    "binom",
    "central_binomial",
]

_EPS = 2.220446049250313e-16

# log I0 switches from the power series to the asymptotic expansion here;
# the asymptotic remainder at the crossover is ~4e-11 relative, the series
# roundoff ~1e-12 absolute.
_BESSEL_CROSSOVER = 12.0

_EULER_GAMMA = 0.5772156649015329

# largest order upper_gamma accepts; at s = 6 the continued fraction is
# already off by 3.6e-14 relative just above x = 1.5
_MAX_ORDER = 5.0


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair.  At least one must be positive."""

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.abs_tol < 0.0 or self.rel_tol < 0.0:
            raise ValueError("tolerances must be non-negative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")

    def target(self, scale: float) -> float:
        """Error budget for a quantity of the given magnitude."""
        return max(self.abs_tol, self.rel_tol * abs(scale))


# ---------------------------------------------------------------------------
# complete elliptic integrals
# ---------------------------------------------------------------------------

def ellip_k(xi: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    ellip_k(xi) = integral_0^{pi/2} dt / sqrt(1 - xi^2 sin^2 t)

    computed by the arithmetic-geometric mean iteration, which converges
    quadratically.  Valid for 0 <= xi < 1; the value diverges
    logarithmically as xi -> 1, so xi = 1 is rejected.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {xi!r}")
    a = 1.0
    # (1-xi)(1+xi) avoids cancellation in 1 - xi^2 for xi near 1
    b = math.sqrt((1.0 - xi) * (1.0 + xi))
    while abs(a - b) > _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def ellip_e(xi: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention.

    Valid for 0 <= xi <= 1; ellip_e(1) = 1 exactly.  Uses the AGM
    iteration with the scaled sum of squared gap terms.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"modulus must lie in [0, 1], got {xi!r}")
    if xi == 1.0:
        return 1.0
    a = 1.0
    b = math.sqrt((1.0 - xi) * (1.0 + xi))
    csum = 0.5 * xi * xi  # 2^{-1} c_0^2 with c_0 = xi
    scale = 0.5
    while abs(a - b) > _EPS * a:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        scale *= 2.0
        csum += scale * c * c
    return math.pi / (2.0 * a) * (1.0 - csum)


# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------

def dilog(z: float) -> float:
    """Dilogarithm sum_{n>=1} z^n / n^2 for z in [0, 1].

    Power series below 1/2; the reflection through 1 - z otherwise.
    dilog(1) = pi^2 / 6 exactly.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {z!r}")
    if z == 1.0:
        return math.pi * math.pi / 6.0
    if z > 0.5:
        return (math.pi * math.pi / 6.0
                - math.log(z) * math.log1p(-z)
                - dilog(1.0 - z))
    if z == 0.0:
        return 0.0
    total = 0.0
    term = z  # z^n
    n = 1
    while True:
        total += term / (n * n)
        n += 1
        term *= z
        if term / (n * n) < 0.25 * _EPS * total:
            return total


# ---------------------------------------------------------------------------
# modified Bessel function I0
# ---------------------------------------------------------------------------

def _i0_series(z: np.ndarray) -> np.ndarray:
    q = 0.25 * z * z
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, 60):
        term = term * q / (k * k)
        total = total + term
        if np.all(term <= 1e-18 * total):
            break
    else:
        raise RuntimeError("I0 power series not converged")
    return total


def _i0_asymptotic_sum(z: np.ndarray) -> np.ndarray:
    # sum_k prod_{j<=k} (2j-1)^2 / (k! (8z)^k), truncated at the smallest term
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, 40):
        step = (2 * k - 1) ** 2 / (8.0 * k * z)
        if np.all(step >= 1.0):
            break
        term = term * step
        total = total + np.where(step < 1.0, term, 0.0)
        if np.all(term < 1e-18):
            break
    return total


def log_bessel_i0(z):
    """log(I0(z)) for z >= 0, elementwise on arrays, immune to overflow."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be non-negative")
    small = arr <= _BESSEL_CROSSOVER
    out = np.empty_like(arr)
    if np.any(small):
        out[small] = np.log(_i0_series(arr[small]))
    if np.any(~small):
        big = arr[~small]
        out[~small] = big + np.log(_i0_asymptotic_sum(big)) - 0.5 * np.log(2.0 * math.pi * big)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# upper incomplete gamma
# ---------------------------------------------------------------------------

def _upper_gamma_cf(s: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for Gamma(s, x) at x >= 1.5.

    The library uses -1 < s <= 1/3 and the tests cover -1 < s <= 5;
    ``upper_gamma`` rejects larger orders.  Each element stops at its
    own first converged step, so its value depends on its own x alone,
    not on the rest of the array.
    """
    # modified Lentz on  x^s e^-x / (x+1-s - 1(1-s)/(x+3-s - 2(2-s)/...))
    tiny = 1e-300
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(b == 0.0, tiny, b)
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, 300):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < 1e-16
        if done.all():
            break
    else:
        raise RuntimeError(f"incomplete gamma continued fraction at s={s!r} not converged")
    with np.errstate(under="ignore"):
        return np.exp(-x + s * np.log(x)) * h


def _upper_gamma_series(s: float, x: np.ndarray) -> np.ndarray:
    """Small-x evaluation through the lower-gamma power series.

    For s < 1 the k = 0 term is folded against Gamma(s) analytically, which
    keeps the evaluation stable arbitrarily close to s = 0 (where the two
    would cancel catastrophically) and covers s = 0 itself.
    """
    lx = np.log(x)
    with np.errstate(under="ignore"):
        xs = np.exp(s * lx)
    tail = np.zeros_like(x)  # sum over k >= 1 of (-x)^k / (k! (s + k))
    term = np.ones_like(x)
    for k in range(1, 80):
        term = term * (-x) / k
        tail = tail + term / (s + k)
        if np.all(np.abs(term / (s + k + 1)) < 1e-18):
            break
    else:
        raise RuntimeError(f"incomplete gamma power series at s={s!r} not converged")
    if s < 1.0:
        # Gamma(s) - x^s/s = (Gamma(s+1) - 1)/s - expm1(s ln x)/s, finite as s -> 0
        if s == 0.0:
            head = -_EULER_GAMMA - lx
        else:
            head = (math.gamma(s + 1.0) - 1.0) / s - np.expm1(s * lx) / s
        return head - xs * tail
    return math.gamma(s) - xs * (1.0 / s + tail)


def upper_gamma(s: float, x):
    """Upper incomplete gamma Gamma(s, x) for x > 0 and real order s.

    Small x uses the power series in a cancellation-free arrangement;
    x >= 1.5 uses the Lentz continued fraction evaluated directly at the
    target order, which stays accurate for the negative orders needed
    here (a downward recurrence from a positive order amplifies roundoff
    by a factor ~x per step, unusable at large x).  Negative integer
    orders are rejected, and so are orders above 5, where the continued
    fraction is no longer accurate near x = 1.5.  Accepts array x.
    """
    s = float(s)
    if s < 0.0 and s.is_integer():
        raise ValueError(f"negative integer order is not supported, got {s!r}")
    if s > _MAX_ORDER:
        raise ValueError(f"order above {_MAX_ORDER} is not supported, got {s!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("x must be positive")
    out = np.empty_like(arr)
    small = arr < 1.5
    if np.any(small):
        out[small] = _upper_gamma_series(s, arr[small])
    if np.any(~small):
        out[~small] = _upper_gamma_cf(s, arr[~small])
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# exact combinatorics
# ---------------------------------------------------------------------------

def binom(n: int, k: int) -> int:
    """Binomial coefficient as an exact integer (n >= 0)."""
    return math.comb(n, k)


def central_binomial(n: int) -> int:
    """Central binomial coefficient C(2n, n) as an exact integer."""
    return math.comb(2 * n, n)
