"""Geometric-progression ansatz for the two-party quadratic form.

The transformed coefficients n*c_n form a geometric progression with
ratio xi, which turns the quadratic form into a two-variable expression
over an ellipse.  Minimizing over the ellipse angle gives a closed form
q0(xi); an outer one-dimensional search then locates the best xi and
reconstructs the state coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bipartite import XiParameter, as_xi
from .specfun import dilog

__all__ = ["SimpleStateSolution", "c1_c2", "q0", "minimize_q0"]

_GOLDEN_BRACKET = (0.05, 0.9)
_GOLDEN_TOL = 1e-8
_SCAN_POINTS = 64
_TRUNCATION_TAIL = 1e-16


class SimpleStateSolution(namedtuple(
        "SimpleStateSolution", "xi phi q_value coefficients tail_norm_sq")):
    """Minimizing state of the ansatz.

    ``xi`` is the minimizing ``XiParameter``, ``phi`` the ellipse angle
    and ``q_value`` the minimum of the form.  ``coefficients`` holds
    (c_0, c_1, ..., c_m) truncated where the neglected terms are below
    the tail bound; ``tail_norm_sq`` is the exact analytic mass of
    everything beyond the truncation, so that sum(c^2) + tail_norm_sq = 1
    up to roundoff.
    """

    __slots__ = ()


def c1_c2(xi):
    """Coefficient pair of the reduced form -C1 sin(2 phi) + C2 (1 - cos(2 phi))."""
    v = as_xi(xi).value
    li = dilog(v * v)
    c1 = 0.5 * v / math.sqrt(li)
    c2 = (
        0.5
        * (2.0 - v)
        * (2.0 / (1.0 - v * v) - math.log1p(-v * v) / (v * v))
        * (v * v)
        / li
    )
    return c1, c2


def q0(xi) -> float:
    """Minimum of the reduced form over the ellipse angle; negative on (0, 1)."""
    c1, c2 = c1_c2(xi)
    return c2 - math.hypot(c1, c2)


def _golden_section(fn, lo: float, hi: float, tol: float):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)


def minimize_q0() -> SimpleStateSolution:
    """Minimize q0 over xi and reconstruct the state coefficients."""
    lo, hi = _GOLDEN_BRACKET
    # coarse scan first: cheap insurance that the bracket holds a single
    # interior minimum before golden-section assumes unimodality
    best_k, best_val = 0, math.inf
    for k in range(_SCAN_POINTS + 1):
        x = lo + (hi - lo) * k / _SCAN_POINTS
        val = q0(x)
        if val < best_val:
            best_k, best_val = k, val
    if best_k == 0 or best_k == _SCAN_POINTS:
        raise RuntimeError("scan found the minimum on the bracket edge")
    xi_min = _golden_section(q0, lo, hi, _GOLDEN_TOL)

    c1, c2 = c1_c2(xi_min)
    # branch with 2 phi in (0, pi): sin(2 phi) > 0 makes the -C1 term negative
    phi = 0.5 * math.atan2(c1, c2)
    q_value = q0(xi_min)

    li = dilog(xi_min * xi_min)
    coeff0 = math.cos(phi)
    coeff1 = xi_min * math.sin(phi) / math.sqrt(li)
    m = 1
    while xi_min ** (2 * m) / (m * m) >= _TRUNCATION_TAIL:
        m += 1
    coefficients = [coeff0, coeff1]
    for n in range(2, m + 1):
        coefficients.append(xi_min ** (n - 1) * coeff1 / n)
    # mass beyond the truncation, from the dilogarithm remainder
    partial = sum(xi_min ** (2 * n) / (n * n) for n in range(1, m + 1))
    tail = (coeff1 * coeff1 / (xi_min * xi_min)) * (li - partial)
    return SimpleStateSolution(
        xi=XiParameter(xi_min),
        phi=phi,
        q_value=q_value,
        coefficients=tuple(coefficients),
        tail_norm_sq=tail,
    )
