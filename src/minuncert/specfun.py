"""Self-contained special-function kernel.

Complete elliptic integrals in the modulus convention (the squared modulus
multiplies sin^2 in the defining integral), the dilogarithm on [0, 1],
the scaled Bessel function i0e(z) = e^-z I0(z) and its logarithm, and
d(z) = e^-z (I0(z) - I1(z)) = -i0e'(z) (``i0e_minus_i1e``).

Scalar arguments are Python floats.  The functions that appear inside
integration kernels (``i0e``, ``log_i0e``) also accept numpy arrays and
evaluate elementwise; on a Python float they run on ``math`` alone, so a
scalar never loads numpy.

``i0e`` is the kernel of the four- and six-party families: each of them
is a Laplace average of the two-party profile C i0e(beta r) e^(-gamma0 r),
which it evaluates without cancellation at every radius.  d gives the
profile's r f' = -C r e^(-gamma0 r) (beta d(beta r) + gamma0 i0e(beta r)) as
a sum of two positive terms, where the form beta i1e - alpha i0e with
alpha = beta + gamma0 would cancel log10(alpha / gamma0) digits.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from ._lazy import np

__all__ = [
    "ellip_k",
    "dilog",
    "i0e",
    "i0e_minus_i1e",
    "log_i0e",
]

_EPS = 2.220446049250313e-16

# log_i0e switches from the power series to the asymptotic expansion here;
# the asymptotic remainder at the crossover is ~8e-12 relative
_BESSEL_CROSSOVER = 12.0

# terms of the dilogarithm's power series before it raises
_DILOG_TERMS = 100

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
# d switches at the same z.  Below, the coefficients (2k - 1)!! / (k! (k + 1)!) of z^k,
# k < 104, each one int division, highest power first: at z = 20 the last is 2e-17 of
# the sum.  A z sums the first 26 + 5 ceil(z): on 10^6 sampled z each keeps the whole
# table's bits (24 + 5 ceil(z) moved 4).  From 20 on, I0's a_k of z^-k less I1's is
# a_k 4k / (2k - 1), k < 32, the last 1.4e-16 of the sum at z = 20
_D_SERIES = tuple(num / den for num, den in zip(
    accumulate(range(1, 206, 2), mul, initial=1),
    accumulate((k * (k + 1) for k in range(1, 104)), mul, initial=1)))[::-1]
_D_ASYMPTOTIC = tuple(a * 4 * k / (2 * k - 1) for k, a in zip(range(31, -1, -1), _I0E_ASYMPTOTIC))

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
    return _ellip_ke(xi, with_e=False)[0]


def _ellip_ke(xi: float, b: float | None = None, with_e: bool = True):
    """(K, E) at the modulus xi in [0, 1) from one AGM pass, unchecked.

    K = pi / (2 AGM(1, b)) reads the complementary modulus b = sqrt(1 - xi^2)
    alone, by default from (1 - xi)(1 + xi), free of cancellation; a caller
    that knows 1 - xi^2 better passes its root, as xi would round it away.
    With ``with_e`` False the pass skips E's sum of squared gaps and gives
    (K, None); the means are the same steps, so K keeps its bits.
    """
    a = 1.0
    if b is None:
        b = math.sqrt((1.0 - xi) * (1.0 + xi))
    csum = 0.5 * xi * xi  # 2^{-1} c_0^2 with c_0 = xi
    scale = 0.5
    while abs(a - b) > _EPS * a:
        if with_e:
            c = 0.5 * (a - b)
            scale *= 2.0
            csum += scale * c * c
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - csum) if with_e else None


# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------

def dilog(z: float) -> float:
    """Dilogarithm sum_{n>=1} z^n / n^2 for z in [0, 1].

    Power series below 1/2, summed until a term stops adding (43 terms at
    z = 1/2); the reflection through 1 - z otherwise.
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
    total = 0.0
    term = z  # z^n
    for n in range(1, _DILOG_TERMS):
        step = term / (n * n)
        if total + step == total:  # also once z^n underflows
            return total
        total += step
        term *= z
    raise RuntimeError(f"dilog series at z={z!r} not converged in {_DILOG_TERMS} terms")


# ---------------------------------------------------------------------------
# modified Bessel function I0
# ---------------------------------------------------------------------------

def _i0_asymptotic_sum(z):
    # sum_k prod_{j<=k} (2j-1)^2 / (k! (8z)^k), truncated at the smallest term
    if isinstance(z, float):
        total = term = 1.0
        for k in range(1, 40):
            step = (2 * k - 1) ** 2 / (8.0 * k * z)
            if step >= 1.0:
                break
            term *= step
            total += term
            if term < 1e-18:
                break
        return total
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
    # a float step by step; an array in place: numpy.polyval allocates per
    # term and takes a quarter longer
    if isinstance(t, float):
        out = coefs[0]
        for c in coefs[1:]:
            out = out * t + c
        return out
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
    if isinstance(z, (int, float)):
        z = float(z)
        if z < 0.0:
            raise ValueError("argument must be non-negative")
        if z < _I0E_CROSSOVER:
            return _horner(_I0E_SERIES, 0.25 * z * z) * math.exp(-z)
        return _horner(_I0E_ASYMPTOTIC, 1.0 / z) / (4.0 * math.sqrt(0.125 * math.pi * z))
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be non-negative")
    out = np.empty_like(arr)
    small = arr < _I0E_CROSSOVER
    zs = arr[small]
    out[small] = _horner(_I0E_SERIES, 0.25 * zs * zs) * np.exp(-zs)
    zb = arr[~small]
    # sqrt(2 pi z) as 4 sqrt(pi z / 8): the same bits, and finite at every z
    out[~small] = _horner(_I0E_ASYMPTOTIC, 1.0 / zb) / (4.0 * np.sqrt(0.125 * math.pi * zb))
    return float(out) if arr.ndim == 0 else out


def i0e_minus_i1e(z: float) -> float:
    """d(z) = e^-z (I0(z) - I1(z)) = -i0e'(z) for a float z >= 0, in (0, 1].

    Below z = 20 it is e^-2z M(1/2, 2, 2z) (DLMF 10.39.5, 13.3.15 and
    13.2.39), from 20 on the asymptotic series of I0 less that of I1
    (DLMF 10.40.1) over sqrt(2 pi z), each summed by Horner's rule, the
    series from the highest power that z needs.  All
    terms of both are positive, so nothing cancels: within 1.2e-15
    relative of mpmath on [1e-5, 1e5], worst near z = 15.5.
    """
    z = float(z)
    if z < 0.0:
        raise ValueError("argument must be non-negative")
    if z < _I0E_CROSSOVER:
        return _horner(_D_SERIES[-(26 + 5 * math.ceil(z)):], z) * math.exp(-2.0 * z)
    return _horner(_D_ASYMPTOTIC, 1.0 / z) / (4.0 * math.sqrt(0.125 * math.pi * z))


def log_i0e(z):
    """log(e^-z I0(z)) = log I0(z) - z for z >= 0, elementwise on arrays.

    Up to z = 12 the log of ``i0e``'s power series in z^2/4, minus z; beyond, the log
    of the asymptotic sum cut at its smallest term over sqrt(2 pi z).  e^z never
    enters, so nothing overflows or cancels against a -z taken outside.
    """
    if isinstance(z, (int, float)):
        z = float(z)
        if z < 0.0:
            raise ValueError("argument must be non-negative")
        if z <= _BESSEL_CROSSOVER:
            return math.log(_horner(_I0E_SERIES, 0.25 * z * z)) - z
        zc = min(z, 2.0**1000)  # as below
        return (math.log(_i0_asymptotic_sum(zc)) - 0.5 * math.log(2.0 * math.pi * zc)
                - 0.5 * math.log(z / zc))
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("argument must be non-negative")
    out = np.empty_like(arr)
    small = arr <= _BESSEL_CROSSOVER
    zs = arr[small]
    out[small] = np.log(_horner(_I0E_SERIES, 0.25 * zs * zs)) - zs
    zb = arr[~small]
    # 8 k z and 2 pi z overflow near the largest float; the sum is 1 to
    # rounding long before, so both take z clamped at 2^1000 and the rest of
    # -ln(z)/2 follows as -ln(z / 2^1000)/2, which is 0 below the clamp
    zc = np.minimum(zb, 2.0**1000)
    out[~small] = (np.log(_i0_asymptotic_sum(zc)) - 0.5 * np.log(2.0 * math.pi * zc)
                   - 0.5 * np.log(zb / zc))
    return float(out) if arr.ndim == 0 else out
