import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from minuncert.quadrature import (
    IntegrationResult,
    QuadratureError,
    _EPS,
    _NODES,
    _STALL_BISECTIONS,
    _WEIGHTS_G,
    _WEIGHTS_K,
    _panels,
    exponential_tail_bound,
    integrate_2d,
    integrate_finite,
    integrate_semi_infinite,
    panel_rule,
)
from minuncert.specfun import Tolerance

# The per-panel error estimate floors at ~50 eps int|f|, so requested
# tolerances must sit above that for the integral's magnitude.
TOL = Tolerance(abs_tol=1e-10)


def test_polynomial_exactness():
    # 15-point Kronrod is exact through degree 22; a single panel suffices
    res = integrate_finite(lambda x: 7 * x**6 - x**3 + 2.0, 0.0, 2.0, TOL)
    assert res.value == pytest.approx(2.0**7 - 4.0 + 4.0, rel=1e-14)
    assert res.evaluations == 15
    for k in range(23):
        (value, _), = _panels(lambda x: x**k, [(0.0, 1.0)])
        assert abs(value - 1.0 / (k + 1)) <= 1e-15
    # the constants carry full double precision: both weight sets sum to 2
    assert abs(_WEIGHTS_K.sum() - 2.0) <= 4e-16
    assert abs(_WEIGHTS_G.sum() - 2.0) <= 4e-16


def test_sin_integral():
    res = integrate_finite(np.sin, 0.0, math.pi, Tolerance(abs_tol=1e-12))
    assert res.value == pytest.approx(2.0, abs=1e-13)
    assert res.evaluations == 15
    assert abs(res.value - 2.0) <= max(res.error_estimate, 1e-14)


def test_near_singular_edge():
    # 1/sqrt(x) just off its singularity forces deep left-edge refinement
    a = 1e-10
    res = integrate_finite(
        lambda x: 1.0 / np.sqrt(x), a, 2.0, Tolerance(abs_tol=1e-9)
    )
    assert res.value == pytest.approx(2.0 * (math.sqrt(2.0) - math.sqrt(a)), abs=1e-8)
    assert res.evaluations == 975


def test_error_estimate_honest():
    for f, a, b, exact, evaluations in [
        (np.exp, 0.0, 1.0, math.e - 1.0, 15),
        (lambda x: np.cos(10.0 * x), 0.0, 3.0, math.sin(30.0) / 10.0, 225),
        (lambda x: x**0.25, 0.0, 1.0, 0.8, 735),
    ]:
        res = integrate_finite(f, a, b, Tolerance(abs_tol=1e-10))
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13)
        assert res.evaluations == evaluations


def test_relative_tolerance_mode():
    big = 1e8
    res = integrate_finite(
        lambda x: big * np.exp(-x), 0.0, 5.0, Tolerance(rel_tol=1e-10)
    )
    exact = big * (1.0 - math.exp(-5.0))
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_budget_exhaustion(monkeypatch):
    # non-integrable spike cannot converge; the failure must carry the
    # best estimate so far (budget shrunk to keep the test quick)
    monkeypatch.setattr("minuncert.quadrature._BUDGET", 5000)
    with pytest.raises(QuadratureError) as exc:
        integrate_finite(
            lambda x: 1.0 / (np.abs(x - 0.5) + 1e-30),
            0.0,
            1.0,
            Tolerance(abs_tol=1e-14),
        )
    assert isinstance(exc.value.result, IntegrationResult)
    assert exc.value.result.evaluations > 1000
    assert math.isfinite(exc.value.result.value)


def test_stalled_pass_fails_fast():
    # 1/x on [0, 1] diverges: every panel [0, h] has the same error
    # estimate, so each bisection of it only adds the error of [h/2, h]
    # and the total never falls below its first value.  The pass must
    # give up after a fixed number of bisections, not a full budget.
    with pytest.raises(QuadratureError, match="stalled") as exc:
        integrate_finite(lambda x: 1.0 / x, 0.0, 1.0, Tolerance(abs_tol=1e-10))
    assert _STALL_BISECTIONS == 200
    assert exc.value.result.evaluations == 15 + 30 * _STALL_BISECTIONS == 6015
    assert exc.value.result.error_estimate > 1.0


def test_semi_infinite_vs_scipy():
    f = lambda r: np.exp(-2.0 * r) * np.cos(3.0 * r)
    res = integrate_semi_infinite(f, Tolerance(abs_tol=1e-12), 2.0, 1.0)
    ref, _ = scipy.integrate.quad(lambda r: math.exp(-2.0 * r) * math.cos(3.0 * r), 0.0, np.inf)
    assert res.value == pytest.approx(ref, abs=1e-11)
    # exact: 2 / (2^2 + 3^2)
    assert res.value == pytest.approx(2.0 / 13.0, abs=1e-11)
    assert res.evaluations == 285


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(
        lambda r: np.exp(-(r**2)), Tolerance(abs_tol=1e-12), 1.0, 1.0
    )
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-11)


def test_semi_infinite_validation():
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, TOL, -1.0)
    with pytest.raises(ValueError):
        integrate_semi_infinite(np.exp, TOL, 1.0, 0.0)


def test_tail_bound():
    assert exponential_tail_bound(3.0, 2.0, 5.0) == pytest.approx(
        1.5 * math.exp(-10.0), rel=1e-14
    )
    with pytest.raises(ValueError):
        exponential_tail_bound(1.0, 0.0, 1.0)


def test_2d_separable():
    res = integrate_2d(
        lambda x, y: np.exp(-x) * math.cos(y),
        (0.0, 1.0),
        (0.0, math.pi / 2),
        Tolerance(abs_tol=1e-10),
    )
    assert res.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)


def test_2d_vs_dblquad():
    f = lambda x, y: np.sin(x + y * y)
    res = integrate_2d(f, (0.0, 1.5), (0.0, 1.0), Tolerance(abs_tol=1e-9))
    ref, _ = scipy.integrate.dblquad(
        lambda y, x: math.sin(x + y * y), 0.0, 1.5, 0.0, 1.0
    )
    assert res.value == pytest.approx(ref, abs=1e-8)
    assert res.evaluations == 225


def test_panels_batched_into_one_call():
    # one call of 15 abscissae for the whole interval, then one call of
    # 30 abscissae for both halves of each bisection
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1.0 / (1.0 + 100.0 * (x - 1.0) ** 2)

    res = integrate_finite(f, 0.0, 6.0, Tolerance(abs_tol=1e-12))
    assert res.evaluations > 15
    assert sizes == [15] + [30] * ((res.evaluations - 15) // 30)


def _rule_pair_reference(f, a, b):
    """The rule pair and its sharpened error on one interval, reduced alone."""
    half = 0.5 * (b - a)
    fv = np.asarray(f(0.5 * (a + b) + half * _NODES), dtype=float)
    resk = np.tensordot(_WEIGHTS_K, fv, axes=(0, 0)) * half
    resg = np.tensordot(_WEIGHTS_G, fv, axes=(0, 0)) * half
    resasc = np.tensordot(_WEIGHTS_K, np.abs(fv - resk * 0.5 / half), axes=(0, 0)) * abs(half)
    resabs = np.tensordot(_WEIGHTS_K, np.abs(fv), axes=(0, 0)) * abs(half)
    err = np.atleast_1d(np.abs(resk - resg))
    resasc = np.atleast_1d(resasc)
    scaled = err.copy()
    live = (resasc > 0.0) & (err > 0.0)
    scaled[live] = resasc[live] * np.minimum(1.0, (200.0 * err[live] / resasc[live]) ** 1.5)
    return resk, float(np.max(np.maximum(scaled, 50.0 * _EPS * resabs)))


def test_panels_match_one_interval_reduction():
    # the batched reduction agrees with reducing each interval alone, up to
    # the summation order of the weighted sums
    def f(x):
        return np.exp(-x) * np.cos(3.0 * x)

    intervals = [(0.0, 0.3), (0.3, 1.1), (1.1, 1.2), (2.0, 5.0), (-4.0, -3.5)]
    for (value, err), (a, b) in zip(_panels(f, intervals), intervals):
        ref_value, ref_err = _rule_pair_reference(f, a, b)
        assert np.shape(value) == np.shape(ref_value)
        assert np.all(np.abs(value - ref_value) <= 4.0 * _EPS * np.abs(ref_value))
        assert err == pytest.approx(ref_err, rel=1e-10)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 24])
def test_panel_rule(order):
    # Gauss-Legendre against numpy's construction, and exact for degree
    # 2 order - 1 on every panel of a composite rule
    from numpy.polynomial.legendre import leggauss

    x, w = panel_rule((-1.0, 1.0), order)
    ref_x, ref_w = leggauss(order)
    assert np.allclose(x, ref_x, rtol=0.0, atol=1e-15)
    assert np.allclose(w, ref_w, rtol=1e-12, atol=0.0)
    edges = (0.0, 0.1, 0.5, 2.0)
    x, w = panel_rule(edges, order)
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
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 1.0, 1.0, TOL)
    with pytest.raises(ValueError):
        integrate_2d(lambda x, y: x, (0.0, 1.0), (2.0, 2.0), TOL)


def test_deterministic():
    f = lambda x: np.exp(-x * x) * np.cos(5.0 * x)
    a = integrate_finite(f, 0.0, 4.0, Tolerance(abs_tol=1e-11))
    b = integrate_finite(f, 0.0, 4.0, Tolerance(abs_tol=1e-11))
    assert a.value == b.value
    assert a.evaluations == b.evaluations == 165


@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_random_polynomials(coefs):
    poly = np.polynomial.Polynomial(coefs)
    res = integrate_finite(poly, -1.0, 2.0, Tolerance(abs_tol=1e-11))
    exact = poly.integ()(2.0) - poly.integ()(-1.0)
    assert res.value == pytest.approx(exact, abs=1e-9)
