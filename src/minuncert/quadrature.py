"""Adaptive Gauss-Kronrod integration.

One nested 7/15 rule pair, interval bisection driven by a worst-first
heap, and three entry points: finite intervals, semi-infinite intervals
with an analytic exponential tail bound, and iterated 2-D rectangles.
Integrands must accept a numpy array of abscissae and evaluate
elementwise.  An integrand is called once per batch of panels, on the
concatenated abscissae of all of them: once for the seed panel of a
pass, then once for both halves of each bisection; the rule sums of a
batch are reduced for all its panels in one vectorised pass.

Besides the adaptive passes, ``panel_rule`` gives a fixed composite
Gauss-Legendre rule on given panel edges, for integrands whose
structure is known in advance.

Everything here is deterministic: identical inputs produce bit-identical
results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import Tolerance

__all__ = [
    "IntegrationResult",
    "QuadratureError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_2d",
    "exponential_tail_bound",
    "panel_rule",
]

_EPS = 2.220446049250313e-16
_BUDGET = 1_000_000  # integrand evaluations per public call
_STALL_BISECTIONS = 200  # bisections without a new low of the total error

# 15-point Kronrod abscissae on [-1, 1] (non-negative half) and weights,
# with the embedded 7-point Gauss weights on the odd-indexed nodes.
# Derived with mpmath at 50 digits: the Gauss nodes are the roots of
# P_7 with weights 2 / ((1 - x^2) P_7'(x)^2); the other Kronrod nodes
# and all Kronrod weights solve the moment equations of the even
# degrees 0..22.  They match the QUADPACK qk15 table to every digit a
# double holds.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:7], _XGK[7:][::-1], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], _WGK[7:][::-1], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:3], _WG[3:][::-1], _WG[2::-1]])


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(Exception):
    """Raised when the subdivision budget runs out before convergence.

    The best estimate reached is attached as ``result``.
    """

    def __init__(self, message: str, result: IntegrationResult):
        super().__init__(message)
        self.result = result


def _panels(f, intervals):
    """Evaluate the rule pair on each interval [a, b] with one call of ``f``.

    ``f`` receives the 15 abscissae of every interval, concatenated in
    order.  Returns one (value, error) pair per interval.  All intervals
    are reduced together.
    """
    bounds = np.array(intervals, dtype=float)
    centers = 0.5 * (bounds[:, 0] + bounds[:, 1])
    half = 0.5 * (bounds[:, 1] - bounds[:, 0])
    fv = np.asarray(f((centers[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    fv = fv.reshape(len(bounds), 15)
    resk = np.tensordot(fv, _WEIGHTS_K, axes=(1, 0)) * half
    resg = np.tensordot(fv, _WEIGHTS_G, axes=(1, 0)) * half
    reskh = resk * 0.5 / half
    resasc = np.tensordot(np.abs(fv - reskh[:, None]), _WEIGHTS_K, axes=(1, 0)) * np.abs(half)
    err = np.abs(resk - resg)
    # QUADPACK-style sharpening of the raw K-G difference
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            (resasc > 0.0) & (err > 0.0),
            resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            err,
        )
    resabs = np.tensordot(np.abs(fv), _WEIGHTS_K, axes=(1, 0)) * np.abs(half)
    scaled = np.maximum(scaled, 50.0 * _EPS * resabs)
    return list(zip(resk, scaled.tolist()))


def _adaptive(f, a: float, b: float, tol: Tolerance, budget: int):
    """Worst-interval-first bisection.  Returns (value, error, evaluations).

    Raises QuadratureError when the budget is exhausted with the error
    still above target, or when ``_STALL_BISECTIONS`` bisections in a
    row have not brought the total error below its smallest value so
    far.  Intervals narrower than ~1e-14 of the original are frozen
    rather than split further.  ``f`` is called once for the whole
    interval and once for both halves of each bisection.
    """
    [(value, err)] = _panels(f, [(a, b)])
    heap = [(-err, 0, a, b, value, err)]
    neval = 15
    counter = 1
    frozen_value = 0.0
    frozen_err = 0.0
    min_width = 1e-14 * (b - a)
    best_err = math.inf
    stalled = 0  # bisections since the total error last reached a new low

    def total():
        v = frozen_value + sum(item[4] for item in heap) if heap else frozen_value
        e = frozen_err + sum(item[5] for item in heap)
        return v, e

    while True:
        v, e = total()
        scale = abs(float(v))
        if e <= tol.target(scale):
            return v, e, neval
        if e < best_err:
            best_err, stalled = e, 0
        if not heap or neval + 30 > budget or stalled >= _STALL_BISECTIONS:
            res = IntegrationResult(float(v), e, neval)
            why = (f"error stalled over {stalled} bisections"
                   if stalled >= _STALL_BISECTIONS else "no convergence")
            raise QuadratureError(
                f"{why} after {neval} evaluations "
                f"(error {e:.3e}, target {tol.target(scale):.3e})",
                res,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa < min_width:
            frozen_value = frozen_value + pval
            frozen_err += perr
            continue
        mid = 0.5 * (pa + pb)
        (lv, le), (rv, re) = _panels(f, [(pa, mid), (mid, pb)])
        neval += 30
        stalled += 1
        heapq.heappush(heap, (-le, counter, pa, mid, lv, le))
        heapq.heappush(heap, (-re, counter + 1, mid, pb, rv, re))
        counter += 2


def integrate_finite(f, a: float, b: float, tol: Tolerance) -> IntegrationResult:
    """Integrate a scalar integrand over [a, b] to the given tolerance.

    ``f`` receives a numpy array of abscissae and must return the
    elementwise values.
    """
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    value, err, neval = _adaptive(f, a, b, tol, _BUDGET)
    return IntegrationResult(float(value), err, neval)


def exponential_tail_bound(decay_coeff: float, decay_rate: float, cutoff: float) -> float:
    """Upper bound on the tail mass of |f| <= C e^{-lambda r} beyond cutoff."""
    if decay_rate <= 0.0 or decay_coeff < 0.0:
        raise ValueError("need decay_rate > 0 and decay_coeff >= 0")
    return decay_coeff * math.exp(-decay_rate * cutoff) / decay_rate


def integrate_semi_infinite(
    f,
    tol: Tolerance,
    decay_rate: float,
    decay_coeff: float = 1.0,
) -> IntegrationResult:
    """Integrate over [0, inf) for an integrand with |f(r)| <= C e^{-lambda r}.

    The cutoff R* is solved from C e^{-lambda R*}/lambda <= half the
    error budget, the rest is a finite adaptive pass on [0, R*], and the
    analytic tail bound is folded into the reported error estimate.
    """
    decay_rate = float(decay_rate)
    decay_coeff = float(decay_coeff)
    if not (decay_rate > 0.0 and math.isfinite(decay_rate)):
        raise ValueError(f"decay_rate must be positive and finite, got {decay_rate!r}")
    if not (decay_coeff > 0.0 and math.isfinite(decay_coeff)):
        raise ValueError(f"decay_coeff must be positive and finite, got {decay_coeff!r}")
    budget_abs = tol.abs_tol if tol.abs_tol > 0.0 else tol.rel_tol * decay_coeff / decay_rate
    # C e^{-lambda R}/lambda <= budget/2
    cutoff = math.log(max(2.0 * decay_coeff / (decay_rate * budget_abs), math.e)) / decay_rate
    cutoff = max(cutoff, 1.0 / decay_rate)
    half = Tolerance(abs_tol=0.5 * tol.abs_tol, rel_tol=0.5 * tol.rel_tol)
    value, err, neval = _adaptive(f, 0.0, cutoff, half, _BUDGET)
    tail = exponential_tail_bound(decay_coeff, decay_rate, cutoff)
    return IntegrationResult(float(value), err + tail, neval)


def integrate_2d(f, x_interval, y_interval, tol: Tolerance) -> IntegrationResult:
    """Iterated adaptive integration over a rectangle.

    ``f(x, y)`` must broadcast over an array ``x`` at fixed scalar ``y``.
    Each axis runs at half the requested tolerance.
    """
    ax, bx = (float(v) for v in x_interval)
    ay, by = (float(v) for v in y_interval)
    if not (ax < bx and ay < by):
        raise ValueError("empty rectangle")
    half = Tolerance(abs_tol=0.5 * tol.abs_tol, rel_tol=0.5 * tol.rel_tol)
    inner = Tolerance(
        abs_tol=0.5 * tol.abs_tol / (by - ay) if tol.abs_tol > 0.0 else 0.0,
        rel_tol=0.5 * tol.rel_tol if tol.rel_tol > 0.0 else 0.0,
    )
    evals = 0

    def row(y: float) -> float:
        nonlocal evals
        value, _, neval = _adaptive(lambda x: f(x, y), ax, bx, inner, _BUDGET - evals)
        evals += neval
        return float(value)

    def outer(ys):
        return np.array([row(float(y)) for y in ys])

    value, err, _ = _adaptive(outer, ay, by, half, _BUDGET)
    return IntegrationResult(float(value), err, evals)


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built on first use.

    Newton's method on P_order from the asymptotic root estimates, with
    P and P' from the three-term recurrence; numpy.polynomial would do
    the same at the price of ~5 ms and ~0.7 MB to import.
    """
    def legendre(x):
        # (P_order(x), P_order'(x))
        p_prev, p = np.ones_like(x), x
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {order} not converged")
    dp = legendre(x)[1]
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


def panel_rule(edges, order: int):
    """Composite Gauss-Legendre rule with ``order`` points on each panel.

    ``edges`` are the increasing panel boundaries.  Returns (nodes,
    weights), nodes ascending.  The rule is exact for polynomials of
    degree 2 order - 1 on every panel.
    """
    if not (isinstance(order, int) and order >= 1):
        raise ValueError(f"order must be a positive integer, got {order!r}")
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or len(e) < 2 or not np.all(np.diff(e) > 0.0):
        raise ValueError("edges must be at least two strictly increasing values")
    x, w = _gauss_legendre(order)
    centers = 0.5 * (e[1:] + e[:-1])[:, None]
    halves = 0.5 * (e[1:] - e[:-1])[:, None]
    return (centers + halves * x).ravel(), (halves * w).ravel()
