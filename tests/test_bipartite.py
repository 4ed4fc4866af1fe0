import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from minuncert.bipartite import (
    PRODUCT_INFIMUM_2,
    SEPARABLE_BOUND_2,
    UncertaintyReport,
    XiParameter,
    as_xi,
    coeff,
    f_closed,
    f_profile,
    fock_coeff,
    fock_normalization_defect,
    overlap,
    r_closed,
    radial_rule,
    residual_norm_sq,
    shell_identity_check,
    shell_sum,
    uncertainty_product,
)
from minuncert.multipartite import g_family, h_family
from minuncert.specfun import _BESSEL_CROSSOVER, binom, ellip_k

from oracles import (
    C00_HALF,
    F0,
    FOCK22_HALF,
    OVERLAP_03_07,
    PRODUCT_2_HALF,
    R_HALF,
    R_NEAR_ONE,
    RESIDUAL_07,
    RF_PRIME_NORM_SQ_HALF,
    SHELL1_HALF,
    VIOLATION_2_HALF,
    f_scipy,
    fd_rk_derivative,
    fock_projection,
    merged_convolution,
    r_series,
    shell_class_sums,
    wavefunction,
)


def test_xi_parameter_validation():
    XiParameter(0.5)
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            XiParameter(bad)
    assert as_xi(XiParameter(0.3)).value == 0.3
    assert as_xi(0.3).value == 0.3


def test_coeff_closed_form():
    # c_n = c_0 binom(2n, n) (xi/4)^n and the recurrence ratio
    xi = 0.6
    c0 = math.sqrt(math.pi / (2.0 * ellip_k(xi)))
    assert coeff(0, xi) == pytest.approx(c0, rel=1e-15)
    for n in range(1, 8):
        closed = c0 * binom(2 * n, n) * (xi / 4.0) ** n
        assert coeff(n, xi) == pytest.approx(closed, rel=1e-14)
        ratio = coeff(n, xi) / coeff(n - 1, xi)
        assert ratio == pytest.approx(xi * (2 * n - 1) / (2 * n), rel=1e-13)
    with pytest.raises(ValueError):
        coeff(-1, xi)


def test_coeff_normalization():
    # 500 terms leave a tail below 1e-40 even at xi = 0.9
    for xi in (0.2, 0.5, 0.9):
        total = sum(coeff(n, xi) ** 2 for n in range(500))
        assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("xi", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_r_closed_vs_series(xi):
    assert r_closed(xi) == pytest.approx(r_series(xi), abs=5e-14)


def test_r_frozen_values():
    assert r_closed(0.5) == pytest.approx(R_HALF, abs=1e-15)
    assert r_closed(1.0 - 1e-8) == pytest.approx(R_NEAR_ONE, abs=1e-10)
    assert r_closed(1.0 - 1e-8) <= -0.47


def test_product_closed_vs_quadrature():
    for xi in (0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12):
        a = uncertainty_product(xi, route="closed_form")
        b = uncertainty_product(xi, route="quadrature")
        assert a.product == pytest.approx(b.product, abs=1e-13)
    with pytest.raises(ValueError):
        uncertainty_product(0.5, route="bogus")


def test_product_third_route_dblquad():
    # fully external evaluation of the same double integral
    xi = 0.5

    def integrand(tp, t):
        ct = math.cos(t)
        cp = math.cos(tp)
        return (1.0 - xi * ct * ct) * (1.0 - xi * cp * cp) / (1.0 - xi * ct * cp) ** 3

    val, err = scipy.integrate.dblquad(integrand, 0.0, math.pi, 0.0, math.pi)
    product = val / (8.0 * math.pi * ellip_k(xi))
    assert product == pytest.approx(PRODUCT_2_HALF, abs=1e-9)


def test_product_frozen_and_window():
    rep = uncertainty_product(0.5)
    assert rep.product == pytest.approx(PRODUCT_2_HALF, abs=1e-15)
    assert rep.violation_ratio == pytest.approx(VIOLATION_2_HALF, rel=1e-12)
    assert rep.separable_bound == SEPARABLE_BOUND_2
    assert rep.infimum == PRODUCT_INFIMUM_2
    assert rep.parties == 2


def test_product_strictly_decreasing():
    grid = [0.05 * k for k in range(1, 20)]
    vals = [uncertainty_product(x).product for x in grid]
    for a, b in zip(vals, vals[1:]):
        assert b < a
    for v in vals:
        assert PRODUCT_INFIMUM_2 < v < SEPARABLE_BOUND_2


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        UncertaintyReport(
            parties=3, xi=XiParameter(0.5), product=0.2,
            separable_bound=0.25, infimum=0.125,
            violation_ratio=1.25, route="closed_form",
        )
    with pytest.raises(ValueError):
        UncertaintyReport(
            parties=2, xi=XiParameter(0.5), product=0.12,
            separable_bound=0.25, infimum=0.125,
            violation_ratio=0.25 / 0.12, route="closed_form",
        )
    with pytest.raises(ValueError):
        UncertaintyReport(
            parties=2, xi=XiParameter(0.5), product=0.2,
            separable_bound=0.25, infimum=0.125,
            violation_ratio=1.0, route="closed_form",
        )


# --- radial profile -------------------------------------------------------


def test_profile_routes_agree():
    for xi in (0.3, 0.9):
        angular = f_profile(xi)
        for r in (0.0, 0.4, 2.0, 7.5):
            assert f_closed(xi, r) == pytest.approx(angular.value(r), rel=1e-11, abs=1e-13)


def test_profile_at_origin_frozen():
    for xi, expected in F0.items():
        assert f_closed(xi, 0.0) == pytest.approx(expected, rel=1e-12)


def test_profile_unit_norm():
    for xi in (0.2, 0.5, 0.95):
        r, weight = radial_rule(xi)
        assert np.sum(weight * f_closed(xi, r) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("xi", [1e-6, 0.01, 0.5, 1.0 - 1e-12, 1.0 - 1e-15])
def test_radial_rule_layout(xi):
    # [0, lo] and the fewest equal ln r panels of ratio at most 4 from
    # lo = 1e-12 / gamma(pi) to hi = 24 / gamma(0), 16 points each
    s = math.sqrt(xi)
    eps = (1.0 - xi) / (1.0 + s)
    lo = 1e-12 / (0.5 * (1.0 + s) / eps)
    hi = 24.0 / (0.5 * eps / (1.0 + s))
    r, weight = radial_rule(xi)
    assert len(r) == len(weight) == 16 * (1 + math.ceil(math.log(hi / lo, 4)))
    assert np.all(np.diff(r) > 0.0) and np.all(weight > 0.0)
    assert r[0] > 0.0 and r[15] < lo < r[16] and r[-1] < hi


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-12])
def test_radial_rule_gamma_moments(xi):
    # int_0^inf r^beta e^-r dr = Gamma(beta + 1) for the powers the
    # cube-root kernels carry at the origin
    r, weight = radial_rule(xi)
    for beta in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 5.0 / 3.0):
        value = np.sum(weight * r**beta * np.exp(-r))
        assert value == pytest.approx(math.gamma(beta + 1.0), rel=1e-15, abs=0.0)


def test_profile_vectorized():
    r = np.array([0.0, 1.0, 3.0])
    vals = f_closed(0.5, r)
    assert vals.shape == (3,)
    for i, ri in enumerate(r):
        assert vals[i] == f_closed(0.5, float(ri))
    assert f_profile(0.5).value(r).shape == (3,)
    with pytest.raises(ValueError):
        f_closed(0.5, -1.0)
    with pytest.raises(ValueError):
        f_profile(0.5).value(-1.0)


def test_f_closed_whole_equals_slices():
    # the profile table evaluates whole columns; each value must not
    # depend on which other radii share the call, for the closed form and
    # for every angular-kernel profile
    for xi in (0.1, 0.5, 0.9, 0.999):
        beta = math.sqrt(xi) / (1.0 - xi)
        r = np.linspace(0.0, 3.0 * _BESSEL_CROSSOVER / beta, 201)
        assert np.any(beta * r <= _BESSEL_CROSSOVER) and np.any(beta * r > _BESSEL_CROSSOVER)
        for route in (lambda rr: f_closed(xi, rr), f_profile(xi).value,
                      g_family(xi).value, h_family(xi).value):
            whole = route(r)
            for width in (16, 1):
                sliced = np.concatenate([route(r[i:i + width]) for i in range(0, len(r), width)])
                assert whole.tobytes() == sliced.tobytes()


@pytest.mark.parametrize("xi", [0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12])
def test_f_profile_point_values_certified(xi):
    # the angular rule against the closed form arranged without
    # cancellation: I0(beta r) e^(-alpha r) = i0e(beta r) e^(-gamma0 r)
    # with gamma0 = alpha - beta = (1 - s) / (2 (1 + s)), s = sqrt(xi)
    s = math.sqrt(xi)
    gap = 1.0 - xi
    gamma0 = 0.5 * gap / (1.0 + s) ** 2
    beta = s / gap
    r = np.concatenate(([0.0], np.geomspace(1e-3, max(4096.0, 40.0 / gamma0), 600)))
    log_front = 0.5 * (math.log(math.pi) - math.log(2.0 * ellip_k(xi) * gap))
    ref = np.exp(log_front + np.log(scipy.special.i0e(beta * r)) - gamma0 * r)
    value = f_profile(xi).value(r)
    live = ref > 1e-8 * ref.max()
    assert np.count_nonzero(live) > 100
    assert np.max(np.abs(value[live] / ref[live] - 1.0)) <= 1e-14


# xi up to the last float below 1, where log I0(beta r) - alpha r lost
# every digit (r / (1 - xi) ~ 1e17)
@pytest.mark.parametrize(
    "xi", [0.5, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 0.9999999999999999])
def test_f_closed_against_scipy_near_one(xi):
    # the closed form on the profile table's radii, r = linspace(0, 4)^2,
    # against scipy's i0e arrangement; 1e-11 leaves room for the ~8e-12
    # of the asymptotic sum just above the crossover z = 12
    r = np.linspace(0.0, 4.0, 81) ** 2
    ref = f_scipy(xi, r)
    assert np.all(ref > 0.0)
    assert np.all(np.abs(f_closed(xi, r) - ref) <= 1e-11 * ref)


def test_f_prime_at_zero():
    for xi in (0.3, 0.7):
        exact = -math.sqrt(math.pi / (8.0 * ellip_k(xi))) * (1.0 + xi) / (1.0 - xi) ** 1.5
        fd = (f_closed(xi, 2e-6) - f_closed(xi, 0.0)) / 2e-6
        assert exact == pytest.approx(fd, rel=1e-5)


def test_rk_derivative_vs_finite_differences():
    # the angular route differentiated against differences of the closed form
    p = f_profile(0.5)

    def closed(r):
        return f_closed(0.5, r)

    for r in (0.7, 1.8):
        for k in (1, 2):
            fd = fd_rk_derivative(closed, k, r, h=1e-3)
            rk = p.derivative_combo([0.0] * k + [1.0], r)
            assert rk == pytest.approx(fd, rel=1e-7, abs=1e-9)
        fd3 = fd_rk_derivative(closed, 3, r, h=1e-2)
        rk3 = p.derivative_combo((0.0, 0.0, 0.0, 1.0), r)
        assert rk3 == pytest.approx(fd3, rel=1e-4, abs=1e-6)


def test_derivative_combo_linearity():
    p = f_profile(0.6)
    r = 1.3
    combo = p.derivative_combo((0.5, 1.0, -2.0), r)
    parts = (0.5 * p.value(r) + p.derivative_combo((0.0, 1.0), r)
             - 2.0 * p.derivative_combo((0.0, 0.0, 1.0), r))
    assert combo == pytest.approx(parts, rel=1e-11)
    with pytest.raises(ValueError):
        p.derivative_combo((1.0, 0.0, 0.0, 0.0, 1.0), r)


def test_residual_norm_closed_vs_quadrature():
    assert residual_norm_sq(0.7) == pytest.approx(RESIDUAL_07, abs=1e-14)
    # the unit-norm angular route, summed on the radial rule
    value = f_profile(0.7).combo_norm((0.5, 1.0)) ** 2
    assert value == pytest.approx(RESIDUAL_07, abs=1e-13)


def test_rf_prime_norm_equals_r_combination():
    # int (r f')^2 dr = (1 + R)/2, tying the profile to the closed R
    value = f_profile(0.5).combo_norm((0.0, 1.0)) ** 2
    assert value == pytest.approx(RF_PRIME_NORM_SQ_HALF, abs=1e-13)
    assert value == pytest.approx(0.5 * (1.0 + r_closed(0.5)), abs=1e-13)


def test_residual_shrinks_toward_one():
    vals = [residual_norm_sq(x) for x in (0.5, 0.9, 0.99)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_wavefunction_normalized():
    # 2-D Gauss-Legendre over the plane; psi depends on x^2 + y^2 only.
    # |psi|^2 decays like exp(-0.17 (x^2 + y^2)) at xi = 0.5, so the
    # box must reach out to ~14 before truncation drops below 1e-9.
    nodes, weights = np.polynomial.legendre.leggauss(400)
    half = 14.0
    x = half * nodes
    w = half * weights
    grid = wavefunction(x[:, None], x[None, :], 0.5)
    total = float(np.einsum("i,j,ij->", w, w, grid * grid))
    assert total == pytest.approx(1.0, abs=1e-9)


# --- overlaps and the number basis ----------------------------------------


def test_overlap_basic_properties():
    assert overlap(0.3, 0.7) == pytest.approx(OVERLAP_03_07, rel=1e-13)
    assert overlap(0.7, 0.3) == overlap(0.3, 0.7)
    for xi in (0.2, 0.8):
        assert overlap(xi, xi) == pytest.approx(1.0, abs=1e-14)
    # against the vacuum the overlap collapses to c_00
    assert overlap(0.5, 0.0) == pytest.approx(C00_HALF, rel=1e-13)
    assert overlap(0.5, 0.0) == pytest.approx(fock_coeff(0, 0, 0.5), rel=1e-13)
    assert overlap(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_overlap_vs_radial_quadrature():
    # the radial rule of the larger xi spans both profiles' scales
    a, b = 0.3, 0.7
    r, weight = radial_rule(b)
    value = np.sum(weight * f_closed(a, r) * f_closed(b, r))
    assert value == pytest.approx(overlap(a, b), abs=1e-12)


def test_fock_selection_rule():
    xi = 0.5
    for n in range(11):
        for m in range(11 - n):
            c = fock_coeff(n, m, xi)
            if (n % 4, m % 4) in ((0, 0), (2, 2)):
                if n + m > 0:
                    assert c != 0.0
            else:
                assert c == 0.0
    with pytest.raises(ValueError):
        fock_coeff(-1, 0, xi)
    with pytest.raises(ValueError):
        fock_coeff(0, 2.5, xi)


def test_fock_coeffs_vs_hermite_projection():
    xi = 0.5
    psi = lambda x, y: wavefunction(x, y, xi)
    assert fock_coeff(0, 0, xi) == pytest.approx(C00_HALF, rel=1e-13)
    for n, m in ((0, 0), (2, 2), (4, 0), (0, 4), (6, 2), (4, 4)):
        proj = fock_projection(psi, n, m)
        assert fock_coeff(n, m, xi) == pytest.approx(proj, abs=5e-12)
    # a forbidden pair projects to numerical zero
    assert abs(fock_projection(psi, 1, 0)) < 1e-12
    assert abs(fock_projection(psi, 2, 0)) < 1e-12
    assert fock_coeff(2, 2, xi) == pytest.approx(FOCK22_HALF, rel=1e-13)


def test_shell_sum_matches_coefficients():
    xi = 0.5
    assert shell_sum(1, xi) == pytest.approx(SHELL1_HALF, rel=1e-11)
    for big_n in range(4):
        direct = sum(
            fock_coeff(n, 4 * big_n - n, xi) ** 2 for n in range(4 * big_n + 1)
        )
        assert shell_sum(big_n, xi) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        shell_sum(-1, xi)


def test_shell_sums_exhaust_the_norm():
    # shell masses scale like xi^(2N); 150 shells leave < 1e-40
    xi = 0.7
    total = sum(shell_sum(n, xi) for n in range(150))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_normalization_defect():
    d = fock_normalization_defect(0.5, 200)
    assert 0.0 < d < 1e-6
    # defect must equal the sum of shell masses beyond the cutoff
    tail = sum(shell_sum(n, 0.5) for n in range(51, 150))
    assert d == pytest.approx(tail, rel=1e-9)
    with pytest.raises(ValueError):
        fock_normalization_defect(0.5, 3)
    # near xi = 1 the tail outruns the shell cap: the exact defect at
    # 1 - 1e-6 is 0.7529, and stopping at the cap would report 0.676
    with pytest.raises(RuntimeError):
        fock_normalization_defect(1.0 - 1e-6, 4)


def test_shell_identity():
    assert shell_identity_check(12)
    # independent exact routes
    for big_n in range(1, 9):
        even, odd = shell_class_sums(big_n)
        assert even + odd == 2 ** (4 * big_n)
    for m in range(1, 17):
        assert merged_convolution(m) == 4**m


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_product_window_property(xi):
    rep = uncertainty_product(xi)
    assert PRODUCT_INFIMUM_2 < rep.product < SEPARABLE_BOUND_2
    assert rep.violation_ratio > 1.0


@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=30, deadline=None)
def test_overlap_range_property(a, b):
    v = overlap(a, b)
    assert 0.0 < v <= 1.0 + 1e-12
