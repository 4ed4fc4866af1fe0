"""Frozen reference values and independent recomputation routes.

The constants here were pinned before or alongside the library build,
from routes that share no code with it: coefficient-series summation,
dense eigendecomposition, scipy special functions and quadrature,
finite differences, exact integer arithmetic.  Tests compare the
implementation against these, so a regression in either side shows up
as a disagreement rather than two copies of the same mistake.
"""

import math

import numpy as np
import scipy.special as sps

from minuncert.bipartite import f_closed

# ---------------------------------------------------------------------------
# frozen scalars

# geometric-ansatz minimum and the order-200 eigen route
XI_MIN = 0.3186740370306206
PHI_MIN = 0.09083562104446363
Q0_MIN = -0.04494914633708813
PRODUCT_2_MIN = 0.20505085366291187
VIOLATION_2_MIN = 1.2192097498456707
LAMBDA_MIN_200 = -0.044953754279095905

# two-party closed forms
R_HALF = -0.2797734208719273
PRODUCT_2_HALF = 0.18005664478201816
VIOLATION_2_HALF = 1.388451952454503
R_NEAR_ONE = -0.4756099015762975  # xi = 1 - 1e-8
RESIDUAL_07 = 0.0829583738132309
RF_PRIME_NORM_SQ_HALF = 0.360113289564033  # equals (1 + R(0.5)) / 2

OVERLAP_03_07 = 0.9662883570717415
C00_HALF = 0.9653022281246678
FOCK22_HALF = 0.12066277851558348
SHELL1_HALF = 0.058238024476403

# profile peak f(0) = sqrt(pi / (2 K (1 - xi)))
F0 = {
    0.9: 2.62446159165661,
    0.99: 6.8408506588644356,
    0.999: 18.692452311137323,
}

# ODE-family norms (physical scaling)
G2_NORM = {
    0.5: 0.4788372631344131,
    0.9: 0.488618196747,
    0.99: 0.492716113997,
    0.999: 0.4945976457,
}
G32_NORM = {0.5: 0.754889346528, 0.999: 0.78831721422}
G2_RAW0_HALF = -1.3651435028028684
H_RAW0_HALF = 1.8084021307856646
H_NORM = {
    0.5: 0.27808489253,
    0.9: 0.281548329567,
    0.99: 0.283109848325,
    0.999: 0.28380202193,
}
RH_NORM = {
    0.5: 0.158705851418,
    0.9: 0.151769335655,
    0.99: 0.14850669191,
    0.999: 0.14703141142,
}

Z4 = {
    0.05: 0.0734439938242,
    0.5: 0.05235305317568871,
    0.9: 0.0430025090746,
    0.99: 0.0394654884043,
    0.999: 0.0378561535058,
}
Z6 = {
    0.05: 0.0212878185288,
    0.5: 0.014592501199310602,
    0.9: 0.0115424580607,
    0.99: 0.0104121689314,
    0.999: 0.00991153252331,
}


# ---------------------------------------------------------------------------
# independent recomputation


def dilog(x: float) -> float:
    return float(sps.spence(1.0 - x))


def r_series(xi: float, terms: int = 5000) -> float:
    """Expectation functional by direct coefficient-series summation.

    Coefficients follow the ratio recurrence c_{k+1}/c_k =
    xi (2k+1)/(2k+2) from c_0 = sqrt(pi / 2K); only even transformed
    indices are populated, so the functional collapses to a single sum.
    Note scipy's elliptic integrals take the parameter m = k^2.
    """
    kv = float(sps.ellipk(xi * xi))
    c = math.sqrt(math.pi / (2.0 * kv))
    total = 0.0
    for k in range(terms):
        nxt = c * xi * (2 * k + 1) / (2 * k + 2)
        total += 2 * k * (2 * k + 1) * c * c - (2 * k + 1) * (2 * k + 2) * c * nxt
        c = nxt
    return total


def q_dense_min(order: int):
    """Minimal eigenpair of the dense quadratic-form matrix, via LAPACK."""
    n = np.arange(order)
    mat = np.diag(2.0 * n * (2 * n + 1))
    m = n[:-1]
    off = -0.5 * (m + 1) * (2 * m + 1)
    mat[m, m + 1] = off
    mat[m + 1, m] = off
    w, v = np.linalg.eigh(mat)
    return float(w[0]), v[:, 0]


def ansatz_coefficients(xi: float, phi: float, terms: int = 400) -> np.ndarray:
    """State coefficients of the geometric ansatz, straight from its
    definition: c_0 = cos(phi), c_n = xi^{n-1} c_1 / n with the c_1
    normalization fixed by the dilogarithm."""
    c = np.empty(terms)
    c[0] = math.cos(phi)
    c1 = xi * math.sin(phi) / math.sqrt(dilog(xi * xi))
    for n in range(1, terms):
        c[n] = xi ** (n - 1) * c1 / n
    return c


def q_form_series(c: np.ndarray) -> float:
    n = np.arange(len(c))
    diag = np.sum(2.0 * n * (2 * n + 1) * c * c)
    m = n[:-1]
    cross = np.sum((m + 1) * (2 * m + 1) * c[:-1] * c[1:])
    return float(diag - cross)


def phi_scan_min(xi: float, points: int = 20001) -> float:
    """Minimum of the ansatz functional over a dense phi grid.

    Pure series evaluation; no closed-form C1/C2 shortcut involved.
    """
    phis = np.linspace(0.0, 0.5 * math.pi, points)
    best = math.inf
    for phi in phis:
        val = q_form_series(ansatz_coefficients(xi, phi, terms=200))
        if val < best:
            best = val
    return best


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions phi_0..phi_{n_max} on x, stacked."""
    out = np.empty((n_max + 1, len(x)))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(
            n / (n + 1.0)
        ) * out[n - 1]
    return out


def fock_projection(psi, n: int, m: int, half_width: float = 8.0,
                    points: int = 400) -> float:
    """Project a two-argument wave function onto phi_n(x) phi_m(y).

    Gauss-Legendre tensor grid; the integrand decays like a Gaussian so
    half_width 8 puts the truncation error far below 1e-10.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    x = half_width * nodes
    w = half_width * weights
    fns = hermite_functions(max(n, m), x)
    grid = psi(x[:, None], x[None, :])
    return float(np.einsum("i,j,ij->", w * fns[n], w * fns[m], grid))


def shell_class_sums(big_n: int):
    """Exact central-binomial convolutions of the two surviving
    residue classes on shell n + m = 4N."""
    even = sum(
        math.comb(4 * k, 2 * k) * math.comb(4 * big_n - 4 * k, 2 * big_n - 2 * k)
        for k in range(big_n + 1)
    )
    odd = sum(
        math.comb(4 * k + 2, 2 * k + 1)
        * math.comb(4 * big_n - 4 * k - 2, 2 * big_n - 2 * k - 1)
        for k in range(big_n)
    )
    return even, odd


def merged_convolution(m_total: int) -> int:
    """sum_j binom(2j, j) binom(2M-2j, M-j) = 4^M, the Vandermonde route."""
    return sum(
        math.comb(2 * j, j) * math.comb(2 * m_total - 2 * j, m_total - j)
        for j in range(m_total + 1)
    )


def fd_rk_derivative(fun, k: int, r: float, h: float = 1e-2) -> float:
    """r^k f^(k)(r) by central differences with one Richardson step."""

    def diff(step):
        if k == 1:
            return (fun(r + step) - fun(r - step)) / (2 * step)
        if k == 2:
            return (fun(r + step) - 2 * fun(r) + fun(r - step)) / step**2
        return (
            fun(r + 2 * step)
            - 2 * fun(r + step)
            + 2 * fun(r - step)
            - fun(r - 2 * step)
        ) / (2 * step**3)

    crude, fine = diff(h), diff(h / 2.0)
    order = 2
    rich = fine + (fine - crude) / (2**order - 1)
    return r**k * rich


# ---------------------------------------------------------------------------
# evaluation helpers over library objects (no independent route)


def wavefunction(x, y, xi):
    """Position wave function psi(x, y) = f(x^2 + y^2) / sqrt(pi)."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    s = xv * xv + yv * yv
    out = np.asarray(f_closed(xi, s)) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


def quadratic_form_value(form, vec) -> float:
    """Evaluate v^T M v for a ``spectral.BandedSymmetricForm`` M."""
    v = np.asarray(vec, dtype=float)
    if v.shape != (form.order,):
        raise ValueError(f"vector length must be {form.order}, got {v.shape}")
    total = float(np.dot(form.diagonal, v * v))
    return total + 2.0 * float(np.dot(form.off_diagonal, v[:-1] * v[1:]))


def f_scipy(xi: float, r):
    """The unit-norm two-party profile C i0e(beta r) e^(-gamma0 r) from scipy.

    C = sqrt(pi / (2 K (1 - xi))) with K from ``ellipkm1`` at
    1 - xi^2 = (1 - xi)(1 + xi), beta = sqrt(xi) / (1 - xi) and
    gamma0 = (1 - xi) / (2 (1 + sqrt(xi))^2): nothing cancels as xi -> 1.
    """
    s = math.sqrt(xi)
    gap = 1.0 - xi
    front = math.sqrt(math.pi / (2.0 * sps.ellipkm1(gap * (1.0 + xi)) * gap))
    return front * sps.i0e((s / gap) * r) * np.exp(-(0.5 * gap / (1.0 + s) ** 2) * r)
