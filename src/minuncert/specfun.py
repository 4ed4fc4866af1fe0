"""Self-contained special-function kernel.

Complete elliptic integrals in the modulus convention (the squared modulus
multiplies sin^2 in the defining integral), the dilogarithm on [0, 1],
the logarithm of the modified Bessel function I0, the upper incomplete
gamma function including negative non-integer order, and exact integer
binomials.

Scalar arguments are Python floats.  The functions that appear inside
integration kernels (``log_bessel_i0``, ``upper_gamma``,
``tabulated_upper_gamma``, ``scaled_upper_gamma``) also accept numpy
arrays and evaluate elementwise.

The integration kernels take the incomplete gamma as the atom
x^-s Gamma(s, x) from ``scaled_upper_gamma``: a piecewise Chebyshev
table per order on [0, 768), times the kernel's own e^-x on the panels
[1.5, 768), and exactly 0 from 768 on, where e^-x is 0.  So no angular
pass reaches the continued fraction.  The table is built on first use
from the continued fraction and the power series, and ``upper_gamma``
stays the reference route.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._numpy import np

__all__ = [
    "ellip_k",
    "ellip_e",
    "dilog",
    "log_bessel_i0",
    "upper_gamma",
    "tabulated_upper_gamma",
    "scaled_upper_gamma",
    "scaled_upper_gammas",
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

# the series route serves x below this edge, the continued fraction above
_SERIES_EDGE = 1.5
# exp(-x + s ln x) underflows to 0 from here on for every s <= _MAX_ORDER
_UNDERFLOW_X = 800.0
# the gamma table: geometric panels [1.5 * 2^k, 1.5 * 2^(k+1)] up to
# x = 768, where e^-x is exactly 0, and the Chebyshev degree of every
# panel.  The branch point x = 0 lies 3 half-widths from each geometric
# panel's centre, so the Bernstein ellipse parameter is 3 + sqrt(8) = 5.8
# and the degree-24 truncation error (~5.8^-24 = 4e-19) sits far below
# rounding
_TABLE_PANELS = 9
_TABLE_DEGREE = 24
# the series column (tail over its leading term on [0, 1.5]) is entire,
# and its Chebyshev coefficients fall ~40-fold per degree: for every
# order up to 5 the exact ones are below 4e-19 of the first at k = 14
# and 8e-21 at k = 15.  The stored ones from k ~ 12 on are the
# transform's rounding alone, ~1e-16 each, and add noise to every sum.
# So the column is summed to degree 14, the lowest that leaves out
# nothing above 1e-20; the table keeps all 25 rows for the panels
_SERIES_DEGREE = 14


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
    """Continued fraction for the scaled e^x x^-s Gamma(s, x) at x >= 1.5.

    The scaled value stays a normal float where Gamma(s, x) underflows.
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
    return h


def _series_tail(s: float, x: np.ndarray) -> np.ndarray:
    """The entire part sum over k >= 1 of (-x)^k / (k! (s + k)) of the series."""
    tail = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, 80):
        term = term * (-x) / k
        tail = tail + term / (s + k)
        if np.all(np.abs(term / (s + k + 1)) < 1e-18):
            break
    else:
        raise RuntimeError(f"incomplete gamma power series at s={s!r} not converged")
    return tail


def _series_value(s: float, x: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Gamma(s, x) from the series tail at the same x.

    For s < 1 the k = 0 term is folded against Gamma(s) analytically, which
    keeps the evaluation stable arbitrarily close to s = 0 (where the two
    would cancel catastrophically) and covers s = 0 itself.
    """
    lx = np.log(x)
    with np.errstate(under="ignore"):
        xs = np.exp(s * lx)
    if s < 1.0:
        # Gamma(s) - x^s/s = (Gamma(s+1) - 1)/s - expm1(s ln x)/s, finite as s -> 0
        if s == 0.0:
            head = -_EULER_GAMMA - lx
        else:
            head = (math.gamma(s + 1.0) - 1.0) / s - np.expm1(s * lx) / s
        return head - xs * tail
    return math.gamma(s) - xs * (1.0 / s + tail)


def _upper_gamma_series(s: float, x: np.ndarray) -> np.ndarray:
    """Small-x evaluation through the lower-gamma power series."""
    return _series_value(s, x, _series_tail(s, x))


def _checked_order(s) -> float:
    s = float(s)
    if s < 0.0 and s.is_integer():
        raise ValueError(f"negative integer order is not supported, got {s!r}")
    if s > _MAX_ORDER:
        raise ValueError(f"order above {_MAX_ORDER} is not supported, got {s!r}")
    return s


def _checked_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("x must be positive")
    return arr


def _checked(s, x):
    return _checked_order(s), _checked_x(x)


def upper_gamma(s: float, x):
    """Upper incomplete gamma Gamma(s, x) for x > 0 and real order s.

    Small x uses the power series in a cancellation-free arrangement;
    x >= 1.5 uses the Lentz continued fraction evaluated directly at the
    target order, which stays accurate for the negative orders needed
    here (a downward recurrence from a positive order amplifies roundoff
    by a factor ~x per step, unusable at large x).  From x = 800 on the
    value underflows to 0 for every accepted order and is returned
    without evaluation.  Negative integer orders are rejected, and so are
    orders above 5, where the continued fraction is no longer accurate
    near x = 1.5.  Accepts array x.

    This is the reference route; the integration kernels use
    ``scaled_upper_gamma``.
    """
    s, arr = _checked(s, x)
    out = np.zeros_like(arr)
    small = arr < _SERIES_EDGE
    mid = ~small & (arr < _UNDERFLOW_X)
    if np.any(small):
        out[small] = _upper_gamma_series(s, arr[small])
    if np.any(mid):
        xm = arr[mid]
        with np.errstate(under="ignore"):
            out[mid] = np.exp(-xm + s * np.log(xm)) * _upper_gamma_cf(s, xm)
    if arr.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=32)
def _gamma_table(s: float) -> np.ndarray:
    """Chebyshev coefficients of the order-s table, shape (degree + 1, panels + 1).

    Column 0 interpolates the series tail divided by its leading term
    -x/(s + 1) on [0, 1.5]; column k >= 1 the ratio e^x x^-s Gamma(s, x)
    on [1.5 * 2^(k-1), 1.5 * 2^k], taken from the continued fraction at
    the first-kind Chebyshev points.  Below 1.5 the head and the tail cancel,
    by up to a factor ~200 as s -> -1, so the tail must be held to a few
    ulp: the quotient is close to 1, and its transform takes every cosine
    at an angle reduced exactly to [0, 2 pi).  The panels need no such
    care, since the ~3e-14 error of the continued fraction dominates theirs.
    """
    n = _TABLE_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    t = np.cos(theta)
    values = np.empty((_TABLE_PANELS + 1, n))
    x0 = _SERIES_EDGE * 0.5 * (t + 1.0)
    values[0] = _series_tail(s, x0) * (-(s + 1.0) / x0)
    lo = _SERIES_EDGE * 2.0 ** np.arange(_TABLE_PANELS)
    x = lo[:, None] * 0.5 * (t + 3.0)
    values[1:] = _upper_gamma_cf(s, x)
    coef = (2.0 / n) * values @ np.cos(np.outer(theta, np.arange(n)))
    # cos(theta_j k) = cos(pi m / 2n) with m = (2j + 1) k mod 4n
    m = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    coef[0] = (2.0 / n) * values[0] @ np.cos(np.pi * m / (2 * n))
    coef[:, 0] *= 0.5
    table = np.ascontiguousarray(coef.T)
    table.flags.writeable = False
    return table


def _clenshaw(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t), elementwise; ``coef`` rows are scalars or per-element."""
    t2 = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for k in range(len(coef) - 1, 0, -1):
        b1, b2 = coef[k] + t2 * b1 - b2, b1
    return coef[0] + t * b1 - b2


def _table_cells(arr: np.ndarray):
    """(inner, mid, x_inner, t_inner, panel, t_mid): where the tables hold each x.

    ``inner`` marks x below 1.5, with the values ``x_inner`` and their
    coordinate ``t_inner`` on the series column; ``mid`` marks
    [1.5, 768), with the geometric ``panel`` (a column index) and its
    local coordinate ``t_mid``, found with ``frexp``.  Every order's
    table has the same layout, so one walk serves several orders.
    """
    q = arr / _SERIES_EDGE
    inner = q < 1.0
    mid = ~inner & (q < 2.0**_TABLE_PANELS)
    # q = m 2^k with m in [0.5, 1): panel k, local coordinate 4m - 3 in [-1, 1)
    m, panel = np.frexp(q[mid])
    return inner, mid, arr[inner], 2.0 * q[inner] - 1.0, panel, 4.0 * m - 3.0


def _table_walk(s: float, arr: np.ndarray, cells, factor) -> np.ndarray:
    """The order-s table at every x of ``arr``, at the ``cells`` of ``_table_cells``.

    Gamma(s, x) below x = 1.5, where the table replaces the series tail
    and the exact head is kept; on [1.5, 768) the table value
    e^x x^-s Gamma(s, x) of one of 9 geometric panels times ``factor``
    (one value per ``mid`` cell); and 0 from 768 on.  Each value depends
    on its own x alone.
    """
    inner, mid, xs, t_inner, panel, t_mid = cells
    table = _gamma_table(s)
    out = np.zeros_like(arr)
    if xs.size:
        tail = _clenshaw(table[:_SERIES_DEGREE + 1, 0], t_inner) * (-xs / (s + 1.0))
        out[inner] = _series_value(s, xs, tail)
    if t_mid.size:
        out[mid] = _clenshaw(table[:, panel], t_mid) * factor
    return out


def tabulated_upper_gamma(s: float, x):
    """Gamma(s, x) from a piecewise Chebyshev table of order s.

    Accepts the orders and arguments ``upper_gamma`` accepts and agrees
    with it to ~1e-13 relative where Gamma(s, x) is a normal float, and
    to one unit in the last place where it is subnormal (x above ~700
    for the kernel orders).  Below x = 1.5 the table replaces the
    series tail and keeps the exact head; on [1.5, 768) it replaces the
    continued fraction by one of 9 geometric panels; from 768 on
    ``upper_gamma`` itself is called, which is nonzero there only for
    orders above 1.  The table for each order is built on first use.
    Each value depends on its own x alone.
    """
    s, arr = _checked(s, x)
    cells = _table_cells(arr)
    xm = arr[cells[1]]
    out = _table_walk(s, arr, cells, np.exp(-xm + s * np.log(xm)))
    far = arr >= _SERIES_EDGE * 2.0**_TABLE_PANELS
    if np.any(far):
        out[far] = upper_gamma(s, arr[far])
    if arr.ndim == 0:
        return float(out)
    return out


def scaled_upper_gammas(orders, x, e):
    """The kernel atoms x^-s Gamma(s, x) for each s in ``orders``, from one table walk.

    Each is bit for bit ``scaled_upper_gamma(s, x, e)``; the panel of
    every x, its masks and its local coordinate are found once for all
    orders.  Returns a tuple, one array (or float) per order.
    """
    orders = [_checked_order(s) for s in orders]
    arr = _checked_x(x)
    cells = _table_cells(arr)
    inner, mid, xs = cells[:3]
    factor = np.asarray(e, dtype=float)[mid]
    atoms = []
    for s in orders:
        out = _table_walk(s, arr, cells, factor)
        if xs.size:
            out[inner] *= xs ** -s
        atoms.append(float(out) if arr.ndim == 0 else out)
    return tuple(atoms)


def scaled_upper_gamma(s: float, x, e):
    """The kernel atom x^-s Gamma(s, x), given e = e^-x at the same x.

    From the table of ``tabulated_upper_gamma``: below x = 1.5 the
    table's Gamma(s, x) times x^-s; on [1.5, 768) the panel value
    e^x x^-s Gamma(s, x) times ``e``, with no log, exp or power; from 768
    on exactly 0, as ``e`` is.  Agrees with x^-s ``upper_gamma(s, x)`` to
    ~1e-13 relative wherever both and e^-x are normal floats.  Takes the
    orders ``upper_gamma`` takes; ``e`` has the shape of ``x``.  Each
    value depends on its own x alone.
    """
    return scaled_upper_gammas((s,), x, e)[0]


# ---------------------------------------------------------------------------
# exact combinatorics
# ---------------------------------------------------------------------------

def binom(n: int, k: int) -> int:
    """Binomial coefficient as an exact integer (n >= 0)."""
    return math.comb(n, k)


def central_binomial(n: int) -> int:
    """Central binomial coefficient C(2n, n) as an exact integer."""
    return math.comb(2 * n, n)
