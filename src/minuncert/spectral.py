"""Tridiagonal symmetric quadratic forms and their minimal eigenpairs.

The minimal eigenvalue comes from Sturm-sequence bisection, the
eigenvector from inverse iteration with an O(n) tridiagonal LDL^T solve,
so no dense matrix is ever formed.
"""

from __future__ import annotations

from collections import namedtuple

from ._numpy import np

__all__ = [
    "BandedSymmetricForm",
    "EigenPair",
    "build_q_form",
    "min_eigenpair",
]


class BandedSymmetricForm(namedtuple("BandedSymmetricForm", "order diagonal off_diagonal")):
    """Symmetric tridiagonal matrix: the diagonal and the (n, n+1) couplings."""

    __slots__ = ()

    def __new__(cls, order, diagonal, off_diagonal):
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        if len(diagonal) != order:
            raise ValueError("diagonal length must equal order")
        if len(off_diagonal) != order - 1:
            raise ValueError("off-diagonal length must equal order - 1")
        return super().__new__(cls, order, diagonal, off_diagonal)


class EigenPair(namedtuple("EigenPair", "eigenvalue eigenvector")):
    """A float eigenvalue and its eigenvector, a numpy array."""

    __slots__ = ()


def build_q_form(order: int) -> BandedSymmetricForm:
    """Tridiagonal form with diagonal 2n(2n+1), coupling -(n+1)(2n+1)/2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    n = np.arange(order)
    diag = 2.0 * n * (2 * n + 1)
    m = n[:-1]
    off = -0.5 * (m + 1) * (2 * m + 1)
    return BandedSymmetricForm(order, diag, off)


def _any_below(diag: list, squares: list, x: float, pivmin: float) -> bool:
    """Whether the tridiagonal (diag, squared couplings) has an eigenvalue below x.

    Sylvester's law of inertia: there is one exactly when some pivot of
    the LDL^T factorization of T - x is negative, so the Sturm sequence
    stops at the first.  Pivots smaller than ``pivmin`` count as -pivmin.
    """
    q = diag[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    if q < 0.0:
        return True
    for dk, sk in zip(diag[1:], squares):
        q = dk - x - sk / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            return True
    return False


def _tridiag_min_eig(diag: np.ndarray, off: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimal eigenpair of a symmetric tridiagonal matrix."""
    radius = np.zeros(len(diag))
    if len(off):
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
    lo = float(np.min(diag - radius))
    hi = float(np.max(diag + radius))
    scale = max(abs(lo), abs(hi), 1.0)
    diag_list = diag.tolist()
    squares = (off * off).tolist()
    pivmin = 1e-30 * max(1.0, max(squares, default=1.0))
    for _ in range(200):
        if hi - lo <= 1e-14 * scale:
            break
        mid = 0.5 * (lo + hi)
        if _any_below(diag_list, squares, mid, pivmin):
            hi = mid
        else:
            lo = mid
    shift = 0.5 * (lo + hi)

    factors = _ldl(diag - shift, off)
    if factors is None:
        # exactly singular shift: nudge off the eigenvalue
        factors = _ldl(diag - shift + 1e-13 * scale, off)
        if factors is None:
            raise RuntimeError("shifted matrix stays singular after the nudge")
    n = len(diag)
    v = np.full(n, 1.0 / np.sqrt(n))  # deterministic start
    norm_m = float(np.max(np.abs(diag) + radius))
    best_res = np.inf
    best = v
    best_lam = shift
    for _ in range(50):
        w = _ldl_solve(*factors, v)
        v = w / np.linalg.norm(w)
        mv = _apply(diag, off, v)
        lam = float(v @ mv)
        res = float(np.linalg.norm(mv - lam * v))
        if res < best_res:
            best_res = res
            best = v
            best_lam = lam
        if res <= 1e-10 * norm_m:
            break
    else:
        if best_res > 1e-8 * norm_m:
            raise RuntimeError(
                f"inverse iteration stalled, best residual {best_res:.3e} "
                f"(matrix norm {norm_m:.3e})"
            )
    return best_lam, best


def _ldl(diag: np.ndarray, off: np.ndarray):
    """Pivots d and multipliers l of the tridiagonal LDL^T factorization.

    Returns None when a pivot is exactly zero.
    """
    e = off.tolist()
    d = [0.0] * len(diag)
    piv = float(diag[0])
    for i, a in enumerate(diag[1:].tolist()):
        if piv == 0.0:
            return None
        d[i] = piv
        piv = a - e[i] * e[i] / piv
    if piv == 0.0:
        return None
    d[-1] = piv
    return d, [ei / di for ei, di in zip(e, d)]


def _ldl_solve(d: list, lower: list, v: np.ndarray) -> np.ndarray:
    """Solve L D L^T w = v in O(n) from the factors of ``_ldl``."""
    y = v.tolist()
    for i, li in enumerate(lower):
        y[i + 1] -= li * y[i]
    w = [yi / di for yi, di in zip(y, d)]
    for i in range(len(lower) - 1, -1, -1):
        w[i] -= lower[i] * w[i + 1]
    return np.array(w)


def _apply(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    mv = diag * v
    if len(off):
        mv[:-1] += off * v[1:]
        mv[1:] += off * v[:-1]
    return mv


def _sign_fix(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if comp != 0.0:
            return v if comp > 0.0 else -v
    return v


def min_eigenpair(form: BandedSymmetricForm) -> EigenPair:
    """Smallest eigenvalue with its unit eigenvector."""
    lam, v = _tridiag_min_eig(
        np.asarray(form.diagonal, dtype=float), np.asarray(form.off_diagonal, dtype=float)
    )
    return EigenPair(lam, _sign_fix(v))
