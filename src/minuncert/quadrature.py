"""Fixed composite Gauss-Legendre rules.

``panel_rule`` gives a composite Gauss-Legendre rule on given panel
edges, for integrands whose structure is known in advance.
``graded_rule`` lays those edges out for an integrand on [0, hi] whose
scale spans many decades above a singular point at 0: one panel
[0, lo], then geometric panels of ratio at most 2 up to hi, so every
panel sits at least its own width away from the singularity and the
rule converges geometrically with the points per panel.  ``log_rule``
keeps the panel [0, lo] and takes the rest in u = ln r instead, on equal
u-panels of ratio at most 4, for integrands that are smooth in ln r and
spend most decades near their singular point.  ``dilation_rule`` gives
each radius r its own rule of a Laplace average over u = 1 + y in
[1, inf), whose integrand decays on the scale y ~ 1 / (gamma0 r).  Every
integral of the package is taken on one of the three; the tests certify
each one by comparing two rule orders.

Everything here is deterministic: identical inputs produce bit-identical
results.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._lazy import np

__all__ = ["panel_rule", "graded_rule", "log_rule", "dilation_rule"]


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


def graded_rule(lo: float, hi: float, order: int):
    """``panel_rule`` on [0, lo] followed by geometric panels from lo to hi.

    The geometric part takes the fewest panels whose ratio is at most 2.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    panels = max(1, math.ceil(math.log2(hi / lo)))
    return panel_rule(np.concatenate(([0.0], np.geomspace(lo, hi, panels + 1))), order)


# hi/lo of each u-panel of ``log_rule``.  A function analytic for Re r > 0
# is analytic in u = ln r on the strip |Im u| < pi/2; a u-panel of width
# ln 4 then has a Bernstein ellipse of parameter 4.7 inside that strip
# (16 points: ~4.7^-32 = 2e-22), against 3.3 at ratio 8 (2e-17, seen as
# 1.2e-14 in a nested z4 at xi = 1e-6) and 5.8 for r-panels of ratio 2
_LOG_PANEL_RATIO = 4.0


def log_rule(lo: float, hi: float, order: int):
    """``panel_rule`` on [0, lo], then Gauss-Legendre in u = ln r from lo to hi.

    The log part takes the fewest equal u-panels of ratio at most
    ``_LOG_PANEL_RATIO``, with weights w r: half the panels of
    ``graded_rule`` over the same decades.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    panels = max(1, math.ceil(math.log2(hi / lo) / math.log2(_LOG_PANEL_RATIO)))
    r0, w0 = panel_rule((0.0, lo), order)
    u, wu = panel_rule(np.linspace(math.log(lo), math.log(hi), panels + 1), order)
    r = np.exp(u)
    return np.concatenate((r0, r)), np.concatenate((w0, wu * r))


def dilation_rule(t, order: int, block: int):
    """Blocks (index, counts, y, weight) of the per-radius rule of int_0^inf g(y) dy.

    For each t = gamma0 r > 0 of the 1-D array ``t``: one panel [0, lo],
    lo = min(1/4, 1/(2t)), then the fewest geometric panels of ratio at
    most 4 from lo to 800 / t, each with ``order`` Gauss-Legendre points.
    The integrand g(y) = mu(1 + y) F((1 + y) r) may be singular at
    u = 1 + y = 0 and decays like e^(-t y): the centre of every panel lies
    at least 5/3 of its half-widths from y = -1, the first spans at most
    a factor e^(1/2) of the decay, and e^(-t y) underflows at 800 / t.
    A block holds the rules of the consecutive radii ``index`` (positions
    in ``t``), about ``block`` nodes in all, one radius after the other:
    ``counts`` nodes each.  The rule of a radius depends on its own t alone.
    """
    t = np.asarray(t, dtype=float)
    lo = np.minimum(0.25, 0.5 / t)
    ratio = 800.0 / (t * lo)
    geometric = np.maximum(1, np.ceil(np.log(ratio) / math.log(4.0))).astype(int)
    panels = geometric + 1
    chunk = (np.cumsum(panels) - panels) * order // block
    x, w = _gauss_legendre(order)
    for index in np.split(np.arange(len(t)), np.flatnonzero(np.diff(chunk)) + 1):
        n = panels[index]
        radius = np.repeat(index, n)
        j = np.arange(len(radius)) - np.repeat(np.cumsum(n) - n, n)  # panel within its radius
        top = lo[radius] * ratio[radius] ** (j / geometric[radius])
        bottom = np.concatenate(([0.0], top[:-1]))
        bottom[j == 0] = 0.0
        centers = 0.5 * (top + bottom)[:, None]
        halves = 0.5 * (top - bottom)[:, None]
        yield index, n * order, (centers + halves * x).ravel(), (halves * w).ravel()
