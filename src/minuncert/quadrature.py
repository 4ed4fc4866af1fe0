"""Fixed composite Gauss-Legendre rules.

``panel_rule`` gives a composite Gauss-Legendre rule on given panel
edges, for integrands whose structure is known in advance.  ``log_rule``
lays those edges out for an integrand on [0, hi] that is smooth in ln r
and spans many decades above a singular point at 0: one panel [0, lo],
then equal panels in u = ln r up to hi, whose hi/lo ratio the caller
takes from the integrand's analyticity in u.  The angular rule (in
ln phi, ratio 2.5) and the radial rule (ratio 4) are both built on it.
``dilation_rule`` gives each radius r its own rule of a Laplace average
over u = 1 + y in [1, inf), whose integrand decays on the scale
y ~ 1 / (gamma0 r).  Every integral of the package is taken on one of
the three or on equal panels of the Gauss-Legendre points (the t-rule of
the Mellin density); the tests certify each one by comparing two rule
orders.  ``tail_matrix`` integrates from each Gauss-Legendre point of a
panel to the panel's end, which turns a sweep down the panels of
``log_rule`` into the running integrals of route B's families.

``panel_rule``, ``log_rule`` and ``tail_matrix`` (and the
Gauss-Legendre points under them) are tuples of Python floats built with
``math``, so neither route of the products loads numpy; ``dilation_rule``
feeds the array passes of the families' point values off the radial rule
and returns numpy arrays.  Everything here is deterministic: identical
inputs produce bit-identical results.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._lazy import np

__all__ = ["panel_rule", "log_rule", "tail_matrix", "dilation_rule"]


def _legendre(t: float, order: int):
    """[P_0(t), ..., P_order(t)] by the three-term recurrence, order >= 1."""
    p = [1.0, t]
    for j in range(2, order + 1):
        p.append(((2 * j - 1) * t * p[-1] - (j - 1) * p[-2]) / j)
    return p


@lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], built on first use.

    Newton's method on P_order from the asymptotic root estimates, with
    P and P' from the three-term recurrence, on Python floats;
    numpy.polynomial would do the same at the price of numpy and ~5 ms
    and ~0.7 MB more to import.
    """
    def legendre(x):
        # (P_order(x), P_order'(x))
        *_, p_prev, p = _legendre(x, order)
        return p, order * (x * p - p_prev) / (x * x - 1.0)

    x = [math.cos(math.pi * (k - 0.25) / (order + 0.5)) for k in range(order, 0, -1)]
    for _ in range(100):
        steps = [p / dp for p, dp in map(legendre, x)]
        x = [node - step for node, step in zip(x, steps)]
        if max(map(abs, steps)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes of order {order} not converged")
    dps = [legendre(node)[1] for node in x]
    return tuple(x), tuple(2.0 / ((1.0 - node * node) * dp * dp) for node, dp in zip(x, dps))


def panel_rule(edges, order: int):
    """Composite Gauss-Legendre rule with ``order`` points on each panel.

    ``edges`` are the increasing panel boundaries.  Returns (nodes,
    weights), tuples of floats, nodes ascending.  The rule is exact for
    polynomials of degree 2 order - 1 on every panel.
    """
    if isinstance(order, bool) or not (isinstance(order, int) and order >= 1):
        raise ValueError(f"order must be a positive integer, got {order!r}")
    e = tuple(map(float, edges))
    if len(e) < 2 or not all(a < b for a, b in zip(e, e[1:])):
        raise ValueError("edges must be at least two strictly increasing values")
    x, w = _gauss_legendre(order)
    nodes, weights = [], []
    for a, b in zip(e, e[1:]):
        center, half = 0.5 * (b + a), 0.5 * (b - a)
        nodes += [center + half * node for node in x]
        weights += [half * weight for weight in w]
    return tuple(nodes), tuple(weights)


def log_rule(lo: float, hi: float, order: int, ratio: float):
    """``panel_rule`` on [0, lo], then Gauss-Legendre in u = ln r from lo to hi.

    The log part takes the fewest equal u-panels whose hi/lo is at most
    ``ratio``, with weights w r.  Returns (r, weight), tuples of floats,
    r ascending.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    panels = max(1, math.ceil(math.log2(hi / lo) / math.log2(ratio)))
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / panels
    r0, w0 = panel_rule((0.0, lo), order)
    u, wu = panel_rule([a + k * step for k in range(panels)] + [b], order)
    r = tuple(map(math.exp, u))
    return r0 + r, w0 + tuple(w * x for w, x in zip(wu, r))


@lru_cache(maxsize=8)
def tail_matrix(order: int):
    """Rows T[i][j] = int_(x_i)^1 l_j(x) dx of the Lagrange basis l_j on the
    Gauss-Legendre points x_i of ``order``, built on first use.

    sum_j T[i][j] p(x_j) = int_(x_i)^1 p for every polynomial p of degree
    below ``order``.  l_j = w_j sum_(m<order) (m + 1/2) P_m(x_j) P_m by the
    rule's exactness, and int_x^1 P_m = (P_(m-1)(x) - P_(m+1)(x)) / (2m + 1)
    for m >= 1.  A tuple of row tuples.
    """
    x, w = _gauss_legendre(order)
    at = [_legendre(t, order) for t in x]
    return tuple(
        tuple(wb * (0.5 * (1.0 - xa) + 0.5 * sum(pb[m] * (pa[m - 1] - pa[m + 1])
                                                 for m in range(1, order)))
              for wb, pb in zip(w, at))
        for xa, pa in zip(x, at))


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
    x, w = map(np.asarray, _gauss_legendre(order))
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
