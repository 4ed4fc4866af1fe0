"""Self-contained special-function kernel.

Complete elliptic integrals in the modulus convention (the squared modulus
multiplies sin^2 in the defining integral), the dilogarithm on [0, 1],
and the scaled Bessel function i0e(z) = e^-z I0(z) and its logarithm.

Scalar arguments are Python floats.  The functions that appear inside
integration kernels (``i0e``, ``log_i0e``) also accept numpy arrays and
evaluate elementwise.

``i0e`` is the kernel of the four- and six-party families: each of them
is a Laplace average of the two-party profile C i0e(beta r) e^(-gamma0 r),
which it evaluates without cancellation at every radius.
"""

from __future__ import annotations

import math

from ._lazy import np

__all__ = [
    "ellip_k",
    "ellip_e",
    "dilog",
    "i0e",
    "log_i0e",
]

_EPS = 2.220446049250313e-16

# log_i0e switches from the power series to the asymptotic expansion here;
# the asymptotic remainder at the crossover is ~8e-12 relative
_BESSEL_CROSSOVER = 12.0

# i0e switches from the power series to the asymptotic series here.  At
# z = 20 the 37th term of the power series in z^2/4 is 1.7e-19 of the sum
# and the 32nd of the asymptotic series in 1/z 1.8e-18, so both sums are
# complete to rounding on their sides of the crossover
_I0E_CROSSOVER = 20.0
# coefficients, highest power first: 1/(k!)^2 of (z^2/4)^k, k < 37, and
# prod_{j <= k} (2j - 1)^2 / (8j) of z^-k, k < 32
_I0E_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(36, -1, -1))
_I0E_ASYMPTOTIC = tuple(
    math.prod((2 * j - 1) ** 2 / (8.0 * j) for j in range(1, k + 1)) for k in range(31, -1, -1))

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
    # (1-xi)(1+xi) avoids cancellation in 1 - xi^2 for xi near 1
    return _ellip_k_complement(math.sqrt((1.0 - xi) * (1.0 + xi)))


def _ellip_k_complement(b: float) -> float:
    """ellip_k of the modulus sqrt(1 - b^2), from the complementary modulus b in (0, 1].

    K = pi / (2 AGM(1, b)); a caller that knows 1 - xi^2 without
    cancellation passes its root, since xi itself would round it away.
    """
    a = 1.0
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


def _horner(coefs, t):
    # in place: numpy.polyval allocates per term and takes a quarter longer
    out = np.full_like(t, coefs[0])
    for c in coefs[1:]:
        out *= t
        out += c
    return out


def i0e(z):
    """e^-z I0(z) for z >= 0, elementwise on arrays.

    Below z = 20 the power series in z^2/4 times e^-z, from 20 on the
    asymptotic series in 1/z over sqrt(2 pi z), each summed by Horner's
    rule.  All terms are positive, so nothing cancels: within ~1e-15
    relative at every z.  Each value depends on its own z alone.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be non-negative")
    out = np.empty_like(arr)
    small = arr < _I0E_CROSSOVER
    zs = arr[small]
    out[small] = _horner(_I0E_SERIES, 0.25 * zs * zs) * np.exp(-zs)
    zb = arr[~small]
    out[~small] = _horner(_I0E_ASYMPTOTIC, 1.0 / zb) / np.sqrt(2.0 * math.pi * zb)
    return float(out) if arr.ndim == 0 else out


def log_i0e(z):
    """log(e^-z I0(z)) = log I0(z) - z for z >= 0, elementwise on arrays.

    Up to z = 12 the log of ``i0e``'s power series in z^2/4, minus z; beyond, the log
    of the asymptotic sum cut at its smallest term over sqrt(2 pi z).  e^z never
    enters, so nothing overflows or cancels against a -z taken outside.
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be non-negative")
    out = np.empty_like(arr)
    small = arr <= _BESSEL_CROSSOVER
    zs = arr[small]
    out[small] = np.log(_horner(_I0E_SERIES, 0.25 * zs * zs)) - zs
    zb = arr[~small]
    out[~small] = np.log(_i0_asymptotic_sum(zb)) - 0.5 * np.log(2.0 * math.pi * zb)
    return float(out) if arr.ndim == 0 else out
