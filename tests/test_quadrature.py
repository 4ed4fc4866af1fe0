import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from minuncert import bipartite
from minuncert.quadrature import _gauss_legendre, dilation_rule, log_rule, panel_rule, tail_matrix


def arrays(rule):
    """A rule's tuples of floats as numpy arrays."""
    return tuple(map(np.asarray, rule))


def test_sin_integral():
    x, w = arrays(log_rule(1e-3, math.pi, 16, 2.5))
    assert np.sum(w * np.sin(x)) == pytest.approx(2.0, abs=1e-15)


def test_near_singular_edge():
    # 1/sqrt(x) is singular at 0: the ln x panels keep every panel one
    # width away from it, and the first panel [0, lo] holds ~sqrt(lo)
    x, w = arrays(log_rule(1e-20, 2.0, 16, 2.5))
    assert np.all(x > 0.0)
    assert np.sum(w / np.sqrt(x)) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-11)


def test_error_estimate_honest():
    # the package certifies each fixed rule by a second rule order; where
    # the integrand is analytic on every panel the rule converges
    # geometrically, so the difference of orders 8 and 16 bounds the
    # error of order 8 (up to rounding)
    for f, hi, exact in [
        (np.exp, 1.0, math.e - 1.0),
        (lambda x: np.cos(3.0 * x), 3.0, math.sin(9.0) / 3.0),
    ]:
        q8, q16 = (np.sum(w * f(x))
                   for x, w in (arrays(log_rule(1e-3, hi, order, 2.5)) for order in (8, 16)))
        assert abs(q8 - exact) <= abs(q8 - q16) + 1e-15
        assert q16 == pytest.approx(exact, abs=1e-15)


def test_semi_infinite_vs_scipy():
    # a log mesh up to a cutoff where the integrand is gone, e^-40
    x, w = arrays(log_rule(1e-6, 20.0, 16, 2.5))
    value = np.sum(w * np.exp(-2.0 * x) * np.cos(3.0 * x))
    ref, _ = scipy.integrate.quad(lambda r: math.exp(-2.0 * r) * math.cos(3.0 * r), 0.0, np.inf)
    assert value == pytest.approx(ref, abs=1e-11)
    # exact: 2 / (2^2 + 3^2)
    assert value == pytest.approx(2.0 / 13.0, abs=1e-15)


def test_semi_infinite_gaussian():
    x, w = arrays(log_rule(1e-8, 7.0, 16, 2.5))
    assert np.sum(w * np.exp(-x * x)) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 24])
def test_panel_rule(order):
    # Gauss-Legendre against numpy's construction, and exact for degree
    # 2 order - 1 on every panel of a composite rule
    from numpy.polynomial.legendre import leggauss

    x, w = arrays(panel_rule((-1.0, 1.0), order))
    ref_x, ref_w = leggauss(order)
    assert np.allclose(x, ref_x, rtol=0.0, atol=1e-15)
    assert np.allclose(w, ref_w, rtol=1e-12, atol=0.0)
    edges = (0.0, 0.1, 0.5, 2.0)
    x, w = arrays(panel_rule(edges, order))
    assert x.shape == w.shape == (3 * order,)
    assert np.all(np.diff(x) > 0.0)
    deg = 2 * order - 1
    for a, b in zip(edges[:-1], edges[1:]):
        on = (x > a) & (x < b)
        exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
        assert np.sum(w[on] * x[on] ** deg) == pytest.approx(exact, rel=1e-14)
    for bad_edges, bad_order in (((0.0, 1.0), 0), ((1.0,), 4), ((0.0, 2.0, 1.0), 4)):
        with pytest.raises(ValueError):
            panel_rule(bad_edges, bad_order)


def test_interval_validation():
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            log_rule(lo, hi, 4, 2.5)
    # a ratio of 1 divided by zero, 0.5 and inf gave one panel, -4 a math error
    for ratio in (1.0, 0.5, math.nan, math.inf, -4.0):
        with pytest.raises(ValueError, match="ratio"):
            log_rule(1e-3, 1.0, 16, ratio)


def test_log_rule_layout():
    # [0, lo], then the fewest equal ln r panels of ratio at most 4, each
    # exact for polynomials in ln r of degree 2 order - 1
    lo, hi = 1e-3, 5.0
    r, w = arrays(log_rule(lo, hi, 8, 4.0))
    assert len(r) == 8 * (1 + math.ceil(math.log(hi / lo, 4))) == 64
    assert np.all(np.diff(r) > 0.0) and r[7] < lo < r[8] and r[-1] < hi
    assert np.sum(w[:8]) == pytest.approx(lo, rel=1e-15)
    u, wu = np.log(r[8:]), w[8:] / r[8:]
    a, b = math.log(lo), math.log(hi)
    for k in range(16):
        assert np.sum(wu * (u - a) ** k) == pytest.approx((b - a) ** (k + 1) / (k + 1), rel=1e-13)
    assert len(log_rule(1.0, 4.0, 16, 4.0)[0]) == 32
    assert len(log_rule(1.0, 4.000001, 16, 4.0)[0]) == 48


@pytest.mark.parametrize("order", [1, 2, 3, 16, 24])
def test_tail_matrix_integrates_polynomials_exactly(order):
    # row i of the tail matrix integrates a polynomial of degree below the
    # order from the point x_i to the end of the panel, from its values on
    # the points; the rule's weights do the same from -1.  Mapped onto a
    # panel of half-width h both scale by h
    x, w = _gauss_legendre(order)
    tail = tail_matrix(order)
    assert len(tail) == order and {len(row) for row in tail} == {order}
    for d in range(order):
        values = [node**d for node in x]
        for row, start in zip(tail, x):
            exact = (1.0 - start ** (d + 1)) / (d + 1)
            assert math.fsum(map(lambda t, y: t * y, row, values)) == pytest.approx(
                exact, rel=0.0, abs=2e-15)
    assert tail_matrix(order) is tail


def test_dilation_rule_moments():
    # each radius' own rule integrates e^(-t y) and y e^(-t y) over
    # [0, inf) to rounding, from t = 1e-30 (56 geometric panels) through
    # the switch of the first panel at t = 2; every t gets exactly one
    # rule, the same whatever the block size
    t = np.geomspace(1e-30, 1e4, 171)
    moments = []
    for block in (1, 4096):
        m = np.full((2, t.size), np.nan)
        for index, counts, y, w in dilation_rule(t, 16, block):
            assert np.all(np.isnan(m[0, index])) and y.shape == w.shape == (np.sum(counts),)
            starts = np.cumsum(counts) - counts
            decay = w * np.exp(-np.repeat(t[index], counts) * y)
            m[0, index] = np.add.reduceat(decay, starts)
            m[1, index] = np.add.reduceat(y * decay, starts)
        moments.append(m)
    np.testing.assert_allclose(moments[0][0] * t, 1.0, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(moments[0][1] * t * t, 1.0, rtol=1e-14, atol=0.0)
    assert np.array_equal(moments[0], moments[1])


def test_deterministic():
    # the rule depends on (lo, hi, order, ratio) alone: [0, lo], then the
    # fewest equal ln r panels of at most the ratio, built bit-identically
    # each time as tuples of floats
    a = log_rule(1e-3, 5.0, 16, 2.5)
    b = log_rule(1e-3, 5.0, 16, 2.5)
    assert a == b and {type(v) for part in a for v in part} == {float}
    assert len(a[0]) == 16 * (1 + math.ceil(math.log(5.0 / 1e-3, 2.5))) == 176


@pytest.mark.parametrize("xi, angular, t_rule, radial", [
    (0.01, 80, 272, 384), (0.5, 96, 320, 416), (0.9, 128, 384, 464),
    (1.0 - 1e-12, 576, 1200, 1056)])
def test_rule_sizes(xi, angular, t_rule, radial):
    # the angular rule takes ln phi panels of ratio 2.5, the t-rule
    # ceil(span) + 16 panels of its extreme gammas, the radial rule ln r
    # panels of ratio 4; route A's cost follows the angular and t-rules
    gamma, weight = bipartite.angular_rule(xi, 16)
    assert len(gamma) == len(weight) == angular
    assert len(bipartite._mellin_density(xi, bipartite._ANGULAR_ORDER)[0]) == t_rule
    r, w = bipartite.radial_rule(xi)
    assert isinstance(r, tuple) and isinstance(w, tuple)
    assert len(r) == len(w) == radial


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_random_polynomials(coefs):
    poly = np.polynomial.Polynomial(coefs)
    x, w = arrays(panel_rule((-1.0, 0.25, 2.0), 3))
    exact = poly.integ()(2.0) - poly.integ()(-1.0)
    assert np.sum(w * poly(x)) == pytest.approx(exact, abs=1e-12)
