"""Tridiagonal symmetric quadratic forms and their minimal eigenpairs.

The minimal eigenvalue comes from Sturm-sequence bisection, the
eigenvector from inverse iteration with an O(n) tridiagonal LDL^T solve,
so no dense matrix is ever formed.  Everything runs on Python floats:
the loops are sequential recurrences, so arrays would buy little, and
the ``minimize-q`` command never has to import numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

__all__ = [
    "BandedSymmetricForm",
    "EigenPair",
    "build_q_form",
    "min_eigenpair",
]


class BandedSymmetricForm(namedtuple("BandedSymmetricForm", "diagonal off_diagonal")):
    """Symmetric tridiagonal matrix: the diagonal and the (n, n+1) couplings.

    Both are sequences of finite floats (``build_q_form`` gives tuples);
    they are stored as given.  ``order`` is the length of the diagonal.
    """

    __slots__ = ()

    def __new__(cls, diagonal, off_diagonal):
        if len(diagonal) < 2:
            raise ValueError(f"order must be >= 2, got {len(diagonal)}")
        if len(off_diagonal) != len(diagonal) - 1:
            raise ValueError("off-diagonal length must equal order - 1")
        if not (all(map(math.isfinite, diagonal)) and all(map(math.isfinite, off_diagonal))):
            raise ValueError("form entries must be finite")
        return super().__new__(cls, diagonal, off_diagonal)

    @property
    def order(self) -> int:
        return len(self.diagonal)


class EigenPair(namedtuple("EigenPair", "eigenvalue eigenvector")):
    """A float eigenvalue and its unit eigenvector, a tuple of floats."""

    __slots__ = ()


def build_q_form(order: int) -> BandedSymmetricForm:
    """Tridiagonal form with diagonal 2n(2n+1), coupling -(n+1)(2n+1)/2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    # integer products, exact below 2^53, so each entry is rounded once
    diag = tuple([float(2 * n * (2 * n + 1)) for n in range(order)])
    off = tuple([-0.5 * ((m + 1) * (2 * m + 1)) for m in range(order - 1)])
    return BandedSymmetricForm(diag, off)


def _any_below(diag: list, squares: list, x: float, pivmin: float) -> bool:
    """Whether the tridiagonal (diag, squared couplings) has an eigenvalue below x.

    Sylvester's law of inertia: there is one exactly when some pivot of
    the LDL^T factorization of T - x is negative, so the Sturm sequence
    stops at the first.  Pivots smaller than ``pivmin`` in magnitude count
    as -pivmin, so every pivot below ``pivmin`` ends it.
    """
    q = diag[0] - x
    if q < pivmin:
        return True
    for dk, sk in zip(diag[1:], squares):
        q = dk - x - sk / q
        if q < pivmin:
            return True
    return False


def _tridiag_min_eig(diag: list, off: list) -> tuple[float, list]:
    """Minimal eigenpair of a symmetric tridiagonal matrix."""
    n = len(diag)
    coupling = [abs(e) for e in off]
    # Gershgorin radii: the couplings to the right, then to the left
    radius = [a + b for a, b in zip(coupling + [0.0], [0.0] + coupling)]
    lo = min([d - r for d, r in zip(diag, radius)])
    hi = max([d + r for d, r in zip(diag, radius)])
    scale = max(abs(lo), abs(hi), 1.0)
    if scale == math.inf:
        # finite entries whose Gershgorin bounds overflow: no tolerance is meaningful
        raise OverflowError("Gershgorin bounds of the form overflow")
    squares = [e * e for e in off]
    pivmin = 1e-30 * max(1.0, max(squares, default=1.0))
    for _ in range(200):
        if hi - lo <= 1e-14 * scale:
            break
        mid = 0.5 * (lo + hi)
        if _any_below(diag, squares, mid, pivmin):
            hi = mid
        else:
            lo = mid
    else:
        raise RuntimeError(f"bisection did not converge: bracket [{lo!r}, {hi!r}]")
    shift = 0.5 * (lo + hi)

    shifted = [d - shift for d in diag]
    factors = _ldl(shifted, off)
    if factors is None:
        # exactly singular shift: nudge off the eigenvalue
        nudge = 1e-13 * scale
        factors = _ldl([d + nudge for d in shifted], off)
        if factors is None:
            raise RuntimeError("shifted matrix stays singular after the nudge")
    v = [1.0 / math.sqrt(n)] * n  # deterministic start
    norm_m = max([abs(d) + r for d, r in zip(diag, radius)])
    best_res = math.inf
    best = v
    best_lam = shift
    # One step more once the residual test passes (LAPACK's stein takes
    # two): the Rayleigh quotient errs by about res^2 / gap, and 1e-10 of a
    # norm that grows like n^2 left 3.5e-14 in the eigenvalue at order 4000
    # and 1.5e-11 at order 20000; the step after brings both to the last ulp.
    refined = False
    for _ in range(50):
        w = _ldl_solve(*factors, v)
        w_norm = math.hypot(*w)
        v = [x / w_norm for x in w]
        mv = _apply(diag, off, v)
        lam = math.fsum(map(mul, v, mv))
        res = math.hypot(*[y - lam * x for y, x in zip(mv, v)])
        if res < best_res:
            best_res = res
            best = v
            best_lam = lam
        if res <= 1e-10 * norm_m:
            if refined:
                break
            refined = True
    else:
        # 'not <=' so that a NaN residual or norm fails too
        if not best_res <= 1e-8 * norm_m:
            raise RuntimeError(
                f"inverse iteration stalled, best residual {best_res:.3e} "
                f"(matrix norm {norm_m:.3e})"
            )
    return best_lam, best


def _ldl(diag: list, off: list):
    """Pivots d and multipliers l of the tridiagonal LDL^T factorization.

    Returns None when a pivot is exactly zero.
    """
    d = [0.0] * len(diag)
    piv = diag[0]
    for i, a in enumerate(diag[1:]):
        if piv == 0.0:
            return None
        d[i] = piv
        piv = a - off[i] * off[i] / piv
    if piv == 0.0:
        return None
    d[-1] = piv
    return d, [ei / di for ei, di in zip(off, d)]


def _ldl_solve(d: list, lower: list, v: list) -> list:
    """Solve L D L^T w = v in O(n) from the factors of ``_ldl``."""
    y = list(v)
    for i, li in enumerate(lower):
        y[i + 1] -= li * y[i]
    w = [yi / di for yi, di in zip(y, d)]
    for i in range(len(lower) - 1, -1, -1):
        w[i] -= lower[i] * w[i + 1]
    return w


def _apply(diag: list, off: list, v: list) -> list:
    """M v: the diagonal term, plus the coupling to the right, plus the one to the left."""
    right = [e * x for e, x in zip(off, v[1:])] + [0.0]
    left = [0.0] + [e * x for e, x in zip(off, v)]
    return [d * x + a + b for d, x, a, b in zip(diag, v, right, left)]


def _sign_fix(v: list) -> tuple:
    for comp in v:
        if comp != 0.0:
            return tuple(v) if comp > 0.0 else tuple([-x for x in v])
    return tuple(v)


def min_eigenpair(form: BandedSymmetricForm) -> EigenPair:
    """Smallest eigenvalue with its unit eigenvector.

    The form's entries may be any float sequences, numpy arrays included.
    """
    lam, v = _tridiag_min_eig(list(map(float, form.diagonal)), list(map(float, form.off_diagonal)))
    return EigenPair(lam, _sign_fix(v))
