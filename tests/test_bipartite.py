import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from minuncert.bipartite import (
    UncertaintyReport,
    XiParameter,
    as_xi,
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
from minuncert.multipartite import b_coefficients, family, g_family, h_family
import minuncert.bipartite as bipartite
from minuncert.quadrature import _gauss_legendre, panel_rule
from minuncert.spectral import build_q_form
from minuncert.specfun import _BESSEL_CROSSOVER, ellip_k

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

# the two-party window as literals, independent of the report's derivation
SEPARABLE_BOUND_2, PRODUCT_INFIMUM_2 = 0.25, 0.125


def test_xi_parameter_validation():
    XiParameter(0.5)
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            XiParameter(bad)
    assert as_xi(XiParameter(0.3)).value == 0.3
    assert as_xi(0.3).value == 0.3


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
    # fully external evaluation of the product as the double angular
    # integral (1/(8 pi K)) iint (1 - xi cos^2 t)(1 - xi cos^2 t')
    # / (1 - xi cos t cos t')^3 dt dt' over [0, pi]^2
    xi = 0.5

    def integrand(tp, t):
        ct = math.cos(t)
        cp = math.cos(tp)
        return (1.0 - xi * ct * ct) * (1.0 - xi * cp * cp) / (1.0 - xi * ct * cp) ** 3

    val, err = scipy.integrate.dblquad(integrand, 0.0, math.pi, 0.0, math.pi)
    product = val / (8.0 * math.pi * ellip_k(xi))
    assert product == pytest.approx(PRODUCT_2_HALF, abs=1e-9)


# --- route A: the Mellin density of f ---------------------------------------


def _density_rho(xi, order=16):
    """(t, rule weight, rho) of route A's density, as arrays.

    The density returns the products (t-rule weight) x rho; the weights
    are rebuilt from its layout, equal panels of [0, 13] with ``order``
    Gauss-Legendre points each, whose nodes the test checks first.
    """
    t, wrho = map(np.asarray, bipartite._mellin_density(xi, order))
    x, w = map(np.asarray, _gauss_legendre(order))
    panels = len(t) // order
    half = 0.5 * bipartite._T_MAX / panels
    centers = (2 * np.arange(panels) + 1) * half
    np.testing.assert_allclose(t, np.ravel(centers[:, None] + half * x), rtol=0.0, atol=1e-14)
    wt = np.tile(half * w, panels)
    return t, wt, wrho / wt


@pytest.mark.parametrize("xi", [0.3, 0.9, 0.999])
def test_density_is_a_squared_conical_function(xi):
    # rho_xi(t) = pi sech(pi t) P_(-1/2+it)(Z)^2 / (K (1 - xi)) with
    # Z = (1 + xi) / (1 - xi), from mpmath's Legendre function of the
    # conical kind (DLMF 14.20), which shares nothing with the angular
    # rule, at the rule's own nodes nearest t = 0, 0.7, 3.1, 8.9 and 11.  At
    # xi = 0.9 the node t = 0.688 lies near a zero of P, where rho is
    # 1.2e-4 of rho(0) and meets the reference to 1.8e-14 relative.  At
    # t ~ 11 the phase t ln gamma is the fastest the angular rule must
    # resolve: ln phi panels of ratio 2.5 meet the reference to 7e-14,
    # ratio 3 misses it by 6e-11
    import mpmath as mp

    t, _, rho = _density_rho(xi)
    nearest = [int(np.argmin(np.abs(t - target))) for target in (0.0, 0.7, 3.1, 8.9, 11.0)]
    with mp.workdps(30):
        x = mp.mpf(xi)
        big_z, front = (1 + x) / (1 - x), mp.pi / (mp.ellipk(x * x) * (1 - x))
        for i in nearest:
            p = mp.legenp(mp.mpc(-0.5, t[i]), 0, big_z, type=3)
            ref = float(mp.re(front * mp.sech(mp.pi * t[i]) * p * p))
            assert rho[i] == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("xi", [1e-6, 0.5, 1.0 - 1e-12])
def test_density_moments(xi):
    # int rho = ||f||^2 = 1 (the Mehler-Fock normalisation) and
    # int (1/4 + t^2) rho = ||D f||^2 = (1 + R) / 2, on the t-rule
    t, wrho = bipartite._mellin_density(xi, bipartite._ANGULAR_ORDER)
    assert math.fsum(wrho) == pytest.approx(1.0, rel=1e-14, abs=0.0)
    assert math.fsum(w * (0.25 + s * s) for s, w in zip(t, wrho)) == pytest.approx(
        0.5 * (1.0 + r_closed(xi)), rel=1e-14, abs=0.0)


def test_mellin_density_is_read_only():
    # one density per xi and rule order, shared by every consumer as
    # tuples of floats, which no consumer can write to
    t, wrho = bipartite._mellin_density(0.5, 16)
    assert bipartite._mellin_density(0.5, 16)[1] is wrho
    for values in (t, wrho):
        assert type(values) is tuple and {type(v) for v in values} == {float}
        with pytest.raises(TypeError):
            values[0] = 0.5


@pytest.mark.parametrize("xi", [0.01, 0.5, 0.9, 1.0 - 1e-12])
def test_density_is_the_direct_sum_at_every_node(xi):
    # the shared cos/sin tables give, at every node, the density summed
    # directly at that t alone: sech(pi t) |sum_j amp_j e^(-i t ln gamma_j)|^2
    # / (2 pi K (1 - xi)) with amp = weight / sqrt(gamma) on the angular
    # rule, each sum taken with math.fsum
    t, _, rho = _density_rho(xi)
    gamma, weight = bipartite.angular_rule(xi, 16)
    terms = [(w / math.sqrt(g), math.log(g)) for g, w in zip(gamma, weight)]
    norm = 2.0 * math.pi * ellip_k(xi) * (1.0 - xi)
    direct = []
    for s in t:
        re = math.fsum(a * math.cos(s * lg) for a, lg in terms)
        im = math.fsum(a * math.sin(s * lg) for a, lg in terms)
        direct.append((re * re + im * im) / (math.cosh(math.pi * s) * norm))
    assert np.max(np.abs(rho - direct)) <= 2e-15 * np.max(rho)


def _heavy_sums(xi):
    # the six sums of the density on 6.5 span + 40 equal panels of 24
    # points, with W summed naively over (t x gamma) blocks
    gamma, weight = map(np.asarray, bipartite.angular_rule(xi, 16))
    log_gamma, amp = np.log(gamma), weight / np.sqrt(gamma)
    panels = math.ceil(6.5 * (log_gamma[-1] - log_gamma[0])) + 40
    t, wt = map(np.asarray, panel_rule(np.linspace(0.0, 13.0, panels + 1), 24))
    w2 = np.empty(len(t))
    for start in range(0, len(t), 256):
        phase = np.outer(t[start:start + 256], log_gamma)
        w2[start:start + 256] = (np.sum(amp * np.cos(phase), axis=-1) ** 2
                                 + np.sum(amp * np.sin(phase), axis=-1) ** 2)
    wrho = wt * w2 / (np.cosh(math.pi * t) * 2.0 * math.pi * ellip_k(xi) * (1.0 - xi))
    return _six_sums(t, wrho)


def _six_sums(t, wrho):
    # int rho, int (1/4 + t^2) rho, ||g_2||^2, ||h / scale||^2, and ||v_4||^2 and
    # ||v_5||^2 of `scan --parties 8|10`: int rho / prod_(j<n) ((1/2 + j/n)^2 + t^2)
    t2 = np.asarray(t) ** 2
    wrho = np.asarray(wrho)
    v4 = wrho / ((9.0 / 16.0 + t2) * (1.0 + t2) * (25.0 / 16.0 + t2))
    v5 = wrho / ((0.49 + t2) * (0.81 + t2) * (1.21 + t2) * (1.69 + t2))
    return np.array([math.fsum(wrho), math.fsum(wrho * (0.25 + t2)),
                     0.25 * math.fsum(wrho / (1.0 + t2)),
                     math.fsum(wrho / ((25.0 / 36.0 + t2) * (49.0 / 36.0 + t2))) / 9.0,
                     math.fsum(v4), math.fsum(v5)])


@pytest.mark.parametrize("xi", [1e-6, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-15])
def test_t_rule_meets_a_heavy_rule(xi):
    # span + 16 panels of 16 points resolve |W_xi|^2, which oscillates at
    # frequencies up to span = ln(gamma_max / gamma_min): the six sums
    # the products of 2 to 10 parties read meet those of a rule with
    # 6.5 span + 40 panels of 24 points.  Fewer panels (span + 12) miss by
    # 1.3e-14 at xi = 0.05
    got = _six_sums(*bipartite._mellin_density(xi, 16))
    want = _heavy_sums(xi)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


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
    # the bound, the infimum and the ratio follow from the party count
    report = UncertaintyReport(parties=2, xi=XiParameter(0.5), product=0.2, route="closed_form")
    assert (report.separable_bound, report.infimum) == (SEPARABLE_BOUND_2, PRODUCT_INFIMUM_2)
    assert report.violation_ratio == 0.25 / 0.2
    with pytest.raises(ValueError):
        UncertaintyReport(parties=3, xi=XiParameter(0.5), product=0.2, route="closed_form")
    with pytest.raises(ValueError, match="infimum"):
        UncertaintyReport(parties=2, xi=XiParameter(0.5), product=0.12, route="closed_form")
    with pytest.raises(ValueError, match="below"):
        UncertaintyReport(parties=2, xi=XiParameter(0.5), product=0.25, route="closed_form")


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
    r, weight = map(np.asarray, radial_rule(xi))
    assert len(r) == len(weight) == 16 * (1 + math.ceil(math.log(hi / lo, 4)))
    assert np.all(np.diff(r) > 0.0) and np.all(weight > 0.0)
    assert r[0] > 0.0 and r[15] < lo < r[16] and r[-1] < hi


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-12])
def test_radial_rule_gamma_moments(xi):
    # int_0^inf r^beta e^-r dr = Gamma(beta + 1) for the powers the
    # cube-root kernels carry at the origin
    r, weight = map(np.asarray, radial_rule(xi))
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
    # a profile takes a scalar or a 1-D array of radii and says so
    for prof in (f_profile(0.5), g_family(0.5), h_family(0.5)):
        assert prof.rows(r).shape == (2, 3)
        assert prof.rows(1.0).shape == (2,)
        for route in (prof.value, prof.rows):
            with pytest.raises(ValueError, match="scalar or a 1-D array"):
                route([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_radii_must_be_finite_and_nonnegative(bad):
    # a NaN or infinite radius is refused like a negative one, by the
    # closed form and by the point values of every angular profile, alone
    # or inside an array
    routes = (lambda r: f_closed(0.5, r), f_profile(0.5).value, g_family(0.5).value,
              h_family(0.5).value)
    for route in routes:
        for r in (bad, np.array([0.0, 1.0, bad])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                route(r)


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


def test_f_closed_at_the_largest_radii():
    # beta r = 1.4e308: log_i0e must form neither 8 k z nor 2 pi z there
    # (an overflow warning is an error in this suite), and the profile,
    # e^(-gamma0 r) small, underflows to 0.0
    assert f_closed(0.5, 1e308) == 0.0


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
        fd = fd_rk_derivative(closed, 1, r, h=1e-3)
        assert p.rows(r)[1] == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_rows_are_the_profile_and_its_r_derivative():
    # f has unit norm, so its row v is its value; the rows of a whole
    # array are the rows of each radius, and no row above r v' exists
    p = f_profile(0.6)
    r = np.array([0.0, 1.3, 5.0])
    rows = p.rows(r)
    assert np.array_equal(rows[0], p.value(r))
    for i, radius in enumerate(r):
        assert np.array_equal(p.rows(radius), rows[:, i])
    assert p.rows(0.0)[1] == 0.0
    with pytest.raises(ValueError):
        p.rk_norm(2)


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-12])
def test_f_rows_on_the_rule_are_one_angular_pass(xi):
    # f's rows on the radial rule are the angular pass at the rule's radii,
    # bit for bit, taken anew on each call
    rows = f_profile(xi).rows()
    assert rows == bipartite._angular_kernel_integral(xi, radial_rule(xi)[0], 16)
    assert f_profile(xi).rows() == rows and f_profile(xi).rows() is not rows


def test_f_value_keeps_its_bits():
    # a scalar radius goes through the array rows; the float is the one the
    # angular pass on Python floats gave before, to the bit
    value = f_profile(0.5).value(1.0)
    assert type(value) is float and value.hex() == "0x1.e87c2da8c2d5bp-2"
    assert f_profile(0.5).value(1) == value


def test_residual_norm_closed_vs_quadrature():
    assert residual_norm_sq(0.7) == pytest.approx(RESIDUAL_07, abs=1e-14)
    # the unit-norm angular route, summed on the radial rule
    f, rf = map(np.asarray, f_profile(0.7).rows())
    value = float(np.sum(radial_rule(0.7)[1] * (0.5 * f + rf) ** 2))
    assert value == pytest.approx(RESIDUAL_07, abs=1e-13)


def test_rf_prime_norm_equals_r_combination():
    # int (r f')^2 dr = (1 + R)/2, tying the profile to the closed R
    value = f_profile(0.5).rk_norm(1) ** 2
    assert value == pytest.approx(RF_PRIME_NORM_SQ_HALF, abs=1e-13)
    assert value == pytest.approx(0.5 * (1.0 + r_closed(0.5)), abs=1e-13)


# r f' of route B's mesh is closed: -C r e^(-gamma0 r) (beta d(beta r) + gamma0 i0e(beta r))
_RF_XI = [1e-6, 0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12]


@pytest.mark.parametrize("xi", _RF_XI)
def test_mesh_rf_meets_the_angular_pass(xi):
    # on every radius of the rule the closed r f' meets the angular pass of
    # f's definition to 1e-15 of the column's maximum, and the mesh's f, read
    # in the same loop, keeps the bits of _f_i0e
    mesh = bipartite._radial_mesh(xi, 16)
    rf = bipartite._angular_kernel_integral(xi, mesh.r, 16)[1]
    assert len(mesh.rf) == len(mesh.r) == len(rf)
    assert max(abs(a - b) for a, b in zip(mesh.rf, rf)) <= 1e-15 * max(map(abs, rf))
    assert mesh.f[:len(mesh.r)] == tuple(bipartite._f_i0e(xi, mesh.r))
    assert mesh.f0 == bipartite._f_i0e(xi, (0.0,))[0]


@pytest.mark.parametrize("xi", _RF_XI + [1.0 - 1e-15])
def test_mesh_rf_norm_is_the_closed_one(xi):
    # ||r f'||^2 = ||D f||^2 = (1 + R)/2 on the rule, where the form
    # beta i1e - alpha i0e would lose log10(alpha / gamma0) digits
    mesh = bipartite._radial_mesh(xi, 16)
    value = bipartite._norm_sq(mesh.weight, mesh.rf)
    assert value == pytest.approx(0.5 * (1.0 + r_closed(xi)), rel=1e-15, abs=0.0)


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


def test_overlap_keeps_its_bits():
    # K(sqrt(ab)) skips E's sum of squared gaps; the cells are those of the
    # pass that summed it, to the bit, near xi -> 1 and at the vacuum too
    golden = {(0.3, 0.7): 0.9662883570717419, (0.01, 0.99): 0.6857790975827591,
              (0.5, 1.0 - 1e-12): 0.3705021404313682,
              (1.0 - 1e-15, 1.0 - 1e-12): 0.9217284385263618, (0.0, 0.5): 0.9653022281246679}
    for (a, b), value in golden.items():
        assert overlap(a, b) == value == overlap(b, a)


def test_overlap_vs_radial_quadrature():
    # the radial rule of the larger xi spans both profiles' scales
    a, b = 0.3, 0.7
    r, weight = radial_rule(b)
    value = np.sum(weight * f_closed(a, r) * f_closed(b, r))
    assert value == pytest.approx(overlap(a, b), abs=1e-12)


_OVERLAP_XI = (1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15,
               0.9999999999999999)


def test_overlap_vs_mpmath_near_xi_one():
    # K(sqrt(ab)) / sqrt(K(a) K(b)) at 40 digits for every pair: near a, b
    # -> 1 a rounded modulus sqrt(ab) loses most of 1 - ab, up to 1.06e-11
    # of the overlap at (1 - 1e-9, 1 - 1e-15), so K(sqrt(ab)) must start
    # from its complementary modulus
    import mpmath as mp

    with mp.workdps(40):
        for a in _OVERLAP_XI:
            for b in _OVERLAP_XI:
                x, y = mp.mpf(a), mp.mpf(b)
                ref = mp.ellipk(x * y) / mp.sqrt(mp.ellipk(x * x) * mp.ellipk(y * y))
                assert overlap(a, b) == pytest.approx(float(ref), rel=2e-15, abs=0.0)


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


@pytest.mark.parametrize("n, m, xi", [
    (864, 0, 0.5), (432, 432, 0.5), (100, 0, 1e-12), (50, 50, 1e-12), (98, 2, 1e-12),
    (1032, 0, 0.5), (516, 516, 0.999), (2000, 2000, 0.999), (4096, 4, 0.999999),
    (1028, 0, 0.3), (512, 512, 0.9), (4, 0, 1.0 - 1e-15), (512, 512, 1.0 - 1e-15),
    (2, 2, 0.9999999999999999), (2000, 2000, 0.9999999999999999),
])
def test_fock_coeff_vs_mpmath_at_large_order(n, m, xi):
    # the reference is the binomial form, whose (xi / 16)^(q/2) alone
    # underflows from (864, 0) at xi = 0.5 and from n + m = 100 at
    # xi = 1e-12 and whose binomials outgrow a float from n + m = 1032;
    # every coefficient here is a normal double, which the b_k form must
    # meet; the last four cells sit at the extreme xi of the command's sweep
    import mpmath as mp

    with mp.workdps(40):
        x, q = mp.mpf(xi), (n + m) // 2
        ref = (mp.sqrt(mp.pi / (2 * mp.ellipk(x * x)))
               * mp.sqrt(mp.binomial(n, n // 2) * mp.binomial(m, m // 2))
               * mp.binomial(q, q // 2) * (x / 16) ** (q // 2))
        assert ref > mp.mpf(2) ** -1022
        assert fock_coeff(n, m, xi) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("big_n, xi", [(300, 0.99), (1000, 0.99), (5000, 0.999)])
def test_shell_sum_vs_mpmath_at_large_shells(big_n, xi):
    # C(2N, N)^2 passes the float range from N = 259, while the shell mass
    # (pi / (2K)) (b_N xi^N)^2 stays a normal double
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(xi)
        ref = mp.pi / (2 * mp.ellipk(x * x)) * mp.binomial(2 * big_n, big_n) ** 2 * (x * x / 16) ** big_n
    assert shell_sum(big_n, xi) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("xi, max_total", [(0.5, 1928), (0.7, 3748), (0.9, 12656)])
def test_normalization_defect_vs_mpmath_far_out(xi, max_total):
    # tails below ~5e-294, where 1e-30 of the running sum underflows: the
    # sum must still end, at the value of a direct sum over the shells
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(xi)
        n = max_total // 4 + 1
        term = mp.binomial(2 * n, n) ** 2 * (x * x / 16) ** n
        total = mp.mpf(0)
        while term > mp.mpf(10) ** -40 * total:
            total += term
            term *= ((2 * n + 1) * x / (2 * n + 2)) ** 2
            n += 1
        ref = mp.pi / (2 * mp.ellipk(x * x)) * total
    assert fock_normalization_defect(xi, max_total) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_normalization_defect_below_the_float_range():
    # the true tail at (0.5, 4000) is 8.6e-607: the first term left out
    # underflows, and so does the defect
    assert fock_normalization_defect(0.5, 4000) == 0.0


def test_shell_identity():
    assert shell_identity_check(12)
    # independent exact routes
    for big_n in range(1, 9):
        even, odd = shell_class_sums(big_n)
        assert even + odd == 2 ** (4 * big_n)
    for m in range(1, 17):
        assert merged_convolution(m) == 4**m


@pytest.mark.parametrize("name, call", [
    ("n", b_coefficients),
    ("k", lambda bad: f_profile(0.5).rk_norm(bad)),
    ("N", lambda bad: shell_sum(bad, 0.5)),
    ("n", lambda bad: fock_coeff(bad, 0, 0.5)),
    ("m", lambda bad: fock_coeff(0, bad, 0.5)),
    ("max_total", lambda bad: fock_normalization_defect(0.5, bad)),
    ("N_max", shell_identity_check),
    ("n", lambda bad: family(bad, 0.5)),
    ("order", lambda bad: panel_rule((0.0, 1.0), bad)),
    ("order", build_q_form),
])
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", None])
def test_counts_refuse_bools_and_non_integers(name, call, bad):
    # a count is an int that is not a bool: True is not read as 1 (it gave
    # the n = 1 table, row 1's norm, shell 1 and a 0.0 coefficient), and
    # every other non-integer is a ValueError naming the argument, not a
    # TypeError from inside (build_q_form(2.5) raised one)
    with pytest.raises(ValueError, match=rf"^{name} must be .*integer.*, got {re.escape(repr(bad))}"):
        call(bad)


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
