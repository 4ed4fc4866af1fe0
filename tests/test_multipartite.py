import math
from fractions import Fraction

import numpy as np
import pytest

from minuncert.bipartite import f_closed, f_profile, r_closed
from minuncert.multipartite import (
    PRODUCT_INFIMUM_4,
    PRODUCT_INFIMUM_6,
    SEPARABLE_BOUND_4,
    SEPARABLE_BOUND_6,
    OperatorCoefficients,
    alpha_beta_certificate,
    b_coefficients,
    functional_z,
    g_family,
    h_family,
    pascal_matrix_pair,
    pochhammer_root_residual,
    z4_product,
    z6_product,
)
import minuncert.bipartite as bipartite
import minuncert.multipartite as multipartite
from minuncert.specfun import ellip_k

from oracles import (
    G2_NORM,
    G2_RAW0_HALF,
    G32_NORM,
    H_NORM,
    H_RAW0_HALF,
    RH_NORM,
    Z4,
    Z6,
    fd_rk_derivative,
)


# --- exact coefficient layer ----------------------------------------------


def test_b_tables():
    expected = {
        1: ((1,), Fraction(1, 2)),
        2: ((1, 2), Fraction(1, 30)),
        3: ((1, 9, Fraction(9, 2)), Fraction(1, 560)),
    }
    for n, (b, pref) in expected.items():
        ops = b_coefficients(n)
        assert ops.n == n
        assert ops.b == tuple(Fraction(v) for v in b)
        assert ops.prefactor == pref
        assert isinstance(ops, OperatorCoefficients)


def test_b_leading_coefficient_is_one():
    for n in range(1, 13):
        assert b_coefficients(n).b[0] == 1


def test_a_coefficients_scaling():
    # the unreduced operator coefficients are 2^n n! times b
    for n, table in ((2, (8, 16)), (3, (48, 432, 216))):
        scale = 2**n * math.factorial(n)
        assert tuple(scale * bk for bk in b_coefficients(n).b) == table


def test_b_validation():
    for bad in (0, 13, -1, 2.0):
        with pytest.raises(ValueError):
            b_coefficients(bad)


def test_pascal_pair_inverse():
    for n in (1, 5, 12):
        fwd, inv = pascal_matrix_pair(n)
        for i in range(n):
            for j in range(n):
                acc = sum(fwd[i][k] * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)
    with pytest.raises(ValueError):
        pascal_matrix_pair(0)


def test_pascal_entries():
    fwd, inv = pascal_matrix_pair(4)
    assert fwd[3][0] == Fraction(1, 6)
    assert inv[3][0] == Fraction(-1, 6)
    assert fwd[2][2] == 1
    assert fwd[1][2] == 0


def test_pochhammer_roots_vanish():
    # r^(j/n) spans the operator kernel: every residual is exactly zero
    for n in range(1, 9):
        for j in range(n):
            assert pochhammer_root_residual(n, j) == 0
    with pytest.raises(ValueError):
        pochhammer_root_residual(3, 3)
    with pytest.raises(ValueError):
        pochhammer_root_residual(3, -1)


def test_pochhammer_nonroot_does_not_vanish():
    # a power outside the kernel must leave a nonzero residual
    ops = b_coefficients(3)
    alpha = Fraction(5, 3)
    total = Fraction(0)
    for k in range(1, 4):
        falling = Fraction(1)
        for i in range(k):
            falling *= alpha - i
        total += ops.b[k - 1] * falling
    assert total != 0


# --- ODE families ---------------------------------------------------------


@pytest.mark.parametrize("a", [1.5, 2.0])
@pytest.mark.parametrize("xi", [0.3, 0.5, 0.7])
def test_g_ode_residual(a, xi):
    # (1 - a) g + a r g' = f
    prof = g_family(xi, a)
    for r in (0.0, 0.3, 1.1, 2.6, 5.0):
        lhs = prof.raw_derivative_combo((1.0 - a, a), r)
        assert abs(lhs - f_closed(xi, r)) < 1e-10


def test_h_ode_residual():
    # -2 h + 3 r h' equals the normalized a = 3/2 member
    prof = h_family(0.5)
    base = g_family(0.5, 1.5)
    for r in (0.0, 0.4, 1.3, 3.0):
        lhs = prof.raw_derivative_combo((-2.0, 3.0), r)
        assert abs(lhs - base.value(r)) < 1e-10


def test_g_value_at_origin_analytic():
    # (1 - a) g(0) = f(0), so the raw solution starts at -f(0)/(a - 1)
    f0 = f_closed(0.5, 0.0)
    g2 = g_family(0.5, 2.0).raw_derivative_combo((1.0,), 0.0)
    g32 = g_family(0.5, 1.5).raw_derivative_combo((1.0,), 0.0)
    assert g2 == pytest.approx(-f0, rel=1e-10)
    assert g32 == pytest.approx(-2.0 * f0, rel=1e-10)
    assert g2 == pytest.approx(G2_RAW0_HALF, rel=1e-11)
    # where 800 / (gamma0 r) overflows, the averages take their value at 0
    h = h_family(0.5)
    for r in (1e-310, 1e-305):
        assert g_family(0.5, 2.0).raw_derivative_combo((1.0,), r) == g2
        assert h.raw_derivative_combo((1.0,), r) == h.raw_derivative_combo((1.0,), 0.0)


def test_h_value_at_origin_analytic():
    h0 = h_family(0.5).raw_derivative_combo((1.0,), 0.0)
    base = g_family(0.5, 1.5)
    assert h0 == pytest.approx(-0.5 * base.value(0.0), rel=1e-10)
    # the raw scale carries 1/||base||, so the frozen value is only as
    # reproducible as the norm quadrature target
    assert h0 == pytest.approx(H_RAW0_HALF, rel=1e-8)


def test_g_norm_identity():
    # (1 - a)(1 - 2a) ||g||^2 + a^2 ||r g'||^2 = 1
    for a in (1.5, 2.0):
        prof = g_family(0.5, a)
        n0 = prof.rk_norm(0)
        n1 = prof.rk_norm(1)
        lhs = (1.0 - a) * (1.0 - 2.0 * a) * n0 * n0 + a * a * n1 * n1
        assert lhs == pytest.approx(1.0, abs=1e-12)


def test_h_norm_identity():
    prof = h_family(0.5)
    lhs = 10.0 * prof.rk_norm(0) ** 2 + 9.0 * prof.rk_norm(1) ** 2
    assert lhs == pytest.approx(1.0, abs=1e-12)


def test_frozen_norms():
    assert g_family(0.5, 2.0).normalization == pytest.approx(G2_NORM[0.5], rel=1e-6)
    assert g_family(0.9, 2.0).normalization == pytest.approx(G2_NORM[0.9], rel=1e-6)
    assert g_family(0.5, 1.5).normalization == pytest.approx(G32_NORM[0.5], rel=1e-6)
    assert h_family(0.5).normalization == pytest.approx(H_NORM[0.5], rel=1e-6)
    assert h_family(0.5).rk_norm(1) == pytest.approx(RH_NORM[0.5], rel=1e-6)
    assert h_family(0.9).rk_norm(1) == pytest.approx(RH_NORM[0.9], rel=1e-6)


def test_norm_limits_ordering():
    # ||g_2|| climbs toward 1/2 and ||h|| toward 2/7, both from below
    assert G2_NORM[0.5] < G2_NORM[0.9] < 0.5
    assert g_family(0.9, 2.0).normalization < 0.5
    assert h_family(0.9).normalization < 2.0 / 7.0
    assert h_family(0.5).normalization < h_family(0.9).normalization


def test_rk_derivative_vs_finite_differences():
    prof = g_family(0.5, 2.0)
    for r in (0.8, 2.1):
        for k in (1, 2):
            fd = fd_rk_derivative(prof.value, k, r, h=1e-3)
            rk = prof.derivative_combo([0.0] * k + [1.0], r)
            assert rk == pytest.approx(fd, rel=1e-6, abs=1e-9)
        fd3 = fd_rk_derivative(prof.value, 3, r, h=1e-2)
        rk3 = prof.derivative_combo((0.0, 0.0, 0.0, 1.0), r)
        assert rk3 == pytest.approx(fd3, rel=1e-3, abs=1e-5)
    with pytest.raises(ValueError):
        prof.rk_norm(4)


def test_first_derivative_of_ode_pointwise():
    # differentiating (1 - a) g + a r g' = f once and multiplying by r:
    # r g' + a r^2 g'' = r f', exactly, at every radius
    f = f_profile(0.5)
    for a in (1.5, 2.0):
        prof = g_family(0.5, a)
        for r in (0.5, 1.7, 4.2):
            lhs = prof.raw_derivative_combo((0.0, 1.0, a), r)
            rf = f.derivative_combo((0.0, 1.0), r)
            assert lhs == pytest.approx(rf, rel=1e-10, abs=1e-12)


def test_first_derivative_of_h_ode_pointwise():
    h = h_family(0.5)
    base = g_family(0.5, 1.5)
    for r in (0.6, 2.3):
        lhs = h.raw_derivative_combo((0.0, 1.0, 3.0), r)
        rg = base.derivative_combo((0.0, 1.0), r)
        assert lhs == pytest.approx(rg, rel=1e-9, abs=1e-12)


def _raw_norm_sq(profile, coefs):
    return profile.combo_norm(coefs) ** 2


def _raw_dot(profile, ca, cb):
    # polarization: (A, B) = (||A+B||^2 - ||A-B||^2) / 4
    plus = tuple(x + y for x, y in zip(ca, cb))
    minus = tuple(x - y for x, y in zip(ca, cb))
    return 0.25 * (_raw_norm_sq(profile, plus) - _raw_norm_sq(profile, minus))


def test_h_scalar_product_relations():
    # integration by parts on the half line couples neighboring norms
    h = h_family(0.5)
    n1 = h.rk_norm(1)
    n2 = h.rk_norm(2)
    d12 = _raw_dot(h, (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    assert d12 == pytest.approx(-1.5 * n1 * n1, rel=1e-12, abs=0.0)
    d23 = _raw_dot(h, (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    assert d23 == pytest.approx(-2.5 * n2 * n2, rel=1e-12, abs=0.0)
    d13 = _raw_dot(h, (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    assert d13 == pytest.approx(6.0 * n1 * n1 - n2 * n2, rel=1e-12, abs=0.0)


def test_h_cauchy_schwarz_consequence():
    h = h_family(0.5)
    assert h.rk_norm(2) >= 1.5 * h.rk_norm(1) - 1e-9


def test_h_norms_tie_back_to_base():
    # 28 ||r h'||^2 - (261/2) ||r^2 h''||^2 + (81/4) ||r^3 h'''||^2
    # equals the squared norm of r b' + (3/2) r^2 b'' on the normalized base
    h = h_family(0.5)
    base = g_family(0.5, 1.5)
    lhs = (
        28.0 * h.rk_norm(1) ** 2
        - 130.5 * h.rk_norm(2) ** 2
        + 20.25 * h.rk_norm(3) ** 2
    )
    rhs = (base.combo_norm((0.0, 1.0, 1.5)) / base.normalization) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_family_validation():
    with pytest.raises(ValueError):
        g_family(0.5, 0.5)
    with pytest.raises(ValueError):
        g_family(0.5, 3.0)
    with pytest.raises(ValueError):
        g_family(1.5, 2.0)
    prof = g_family(0.5, 2.0)
    with pytest.raises(ValueError):
        prof.raw_derivative_combo((1.0, 0.0, 0.0, 0.0, 1.0), 1.0)


# --- products -------------------------------------------------------------


def test_z4_frozen_and_window():
    rep = z4_product(0.5)
    assert rep.parties == 4
    assert rep.route == "shortcut"
    assert rep.product == pytest.approx(Z4[0.5], rel=1e-6)
    assert PRODUCT_INFIMUM_4 < rep.product < SEPARABLE_BOUND_4
    assert rep.separable_bound == SEPARABLE_BOUND_4
    assert rep.violation_ratio == pytest.approx(SEPARABLE_BOUND_4 / rep.product, rel=1e-12)


def test_z4_exceeds_separable_bound_at_small_xi():
    # weak squeezing keeps the four-party product above 1/16: legitimate
    # data, just no violation there
    rep = z4_product(0.05)
    assert rep.product == pytest.approx(Z4[0.05], rel=1e-6)
    assert rep.product > SEPARABLE_BOUND_4
    assert rep.violation_ratio < 1.0


def test_z4_monotone_decreasing():
    vals = [z4_product(x).product for x in (0.05, 0.5, 0.9)]
    assert vals[0] > vals[1] > vals[2] > PRODUCT_INFIMUM_4
    assert vals[2] == pytest.approx(Z4[0.9], rel=1e-6)


def test_z4_shortcut_identity():
    # z4 = (1/30) (1 + R)/2 / ||g_2||^2, eliminating the full integrand;
    # the product takes the swapped-order norm, the check the nested one
    for xi in (0.5, 0.9):
        norm = g_family(xi, 2.0).rk_norm(0)
        shortcut = PRODUCT_INFIMUM_4 * 0.5 * (1.0 + r_closed(xi)) / (norm * norm)
        assert z4_product(xi).product == pytest.approx(shortcut, rel=1e-12, abs=0.0)


def test_z6_frozen_and_window():
    rep = z6_product(0.5)
    assert rep.parties == 6
    assert rep.route == "shortcut"
    assert rep.product == pytest.approx(Z6[0.5], rel=1e-6)
    assert PRODUCT_INFIMUM_6 < rep.product < SEPARABLE_BOUND_6
    assert rep.separable_bound == SEPARABLE_BOUND_6


def test_z6_monotone_decreasing():
    vals = [z6_product(x).product for x in (0.05, 0.5, 0.9)]
    assert vals[0] > vals[1] > vals[2] > PRODUCT_INFIMUM_6
    assert vals[0] == pytest.approx(Z6[0.05], rel=1e-6)
    assert vals[2] == pytest.approx(Z6[0.9], rel=1e-6)


def test_z6_shortcut_identity():
    # z6 = (1/560) (1 + R)/2 / (||g_32||^2 ||h||^2), with the nested norms
    xi = 0.5
    g32 = g_family(xi, 1.5).rk_norm(0)
    hn = h_family(xi).rk_norm(0)
    value = (1.0 / 560.0) * 0.5 * (1.0 + r_closed(xi)) / (g32 * g32 * hn * hn)
    assert z6_product(xi).product == pytest.approx(value, rel=1e-12, abs=0.0)


def test_products_match_nested_functional():
    # the primary products against the fully nested route they replaced
    nested_z4 = functional_z(2, g_family(0.5, 2.0))
    nested_z6 = functional_z(3, h_family(0.5))
    assert z4_product(0.5).product == pytest.approx(nested_z4, rel=1e-12, abs=0.0)
    assert z6_product(0.5).product == pytest.approx(nested_z6, rel=1e-12, abs=0.0)


_NEAR_ONE = (0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)


@pytest.mark.parametrize("product, infimum, bound", [
    (z4_product, PRODUCT_INFIMUM_4, SEPARABLE_BOUND_4),
    (z6_product, PRODUCT_INFIMUM_6, SEPARABLE_BOUND_6),
], ids=["z4", "z6"])
def test_products_near_xi_one(product, infimum, bound):
    # strong squeezing: the profiles peak sharply and the angular weight
    # piles up within 1 - sqrt(xi) of theta = 0, yet the product stays
    # inside its window and keeps falling towards the infimum
    vals = [product(x).product for x in _NEAR_ONE]
    assert bound > vals[0]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > infimum


def _m_g32(rho):
    # m(rho) of g_3/2 alone, from its own pass of the cube-root parts
    _, p3w, beta, f0, _ = multipartite._cube_root_parts(rho)
    return 9.0 * np.sum(p3w * (1.0 - beta * f0), axis=-1)


def _m_h(rho):
    # m(rho) of h alone, from its own pass of the cube-root parts
    p, p3w, beta, f0, f1 = multipartite._cube_root_parts(rho)
    return 9.0 * np.sum((p - 1.0) * p3w * (-0.5 - beta * (beta * f1 - f0)), axis=-1)


def _one_kernel_norm(xi, m, scale):
    # ||v|| of one kernel from its own pass over the pairs
    return abs(scale) * bipartite._swapped_norms(xi, lambda rho: (m(rho),))[0]


@pytest.mark.parametrize("m, scale", [
    (multipartite._m_g2, 0.5),
    (_m_g32, 2.0 / 3.0),
    (_m_h, 1.0),
], ids=["g2", "g32", "h"])
@pytest.mark.parametrize("xi", [0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
def test_swapped_norm_rule_orders_agree(m, scale, xi, monkeypatch):
    # the tensor rule is converged on its mesh: two orders per panel agree
    monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 16)
    lo = _one_kernel_norm(xi, m, scale)
    monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 24)
    hi = _one_kernel_norm(xi, m, scale)
    assert lo == pytest.approx(hi, rel=1e-12)


@pytest.mark.parametrize("xi", [0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12])
def test_family_chains_rule_orders_agree(xi, monkeypatch):
    # point values of every kernel of the g_2, g_3/2 and h chains are
    # converged on the angular rule: two orders per panel agree to a few
    # ulps of the column maximum, out to where e^(-gamma(0) r) is ~e^-40
    s = math.sqrt(xi)
    gamma0 = 0.5 * (1.0 - xi) / (1.0 + s) ** 2
    r = np.concatenate(([0.0], np.geomspace(1e-3, max(4096.0, 40.0 / gamma0), 200)))
    for fam in (g_family(xi, 2.0), g_family(xi, 1.5), h_family(xi)):
        for k in range(4):
            coefs = tuple([0.0] * k + [1.0])
            monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 16)
            lo = fam.raw_derivative_combo(coefs, r)
            monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 24)
            hi = fam.raw_derivative_combo(coefs, r)
            assert np.max(np.abs(lo - hi)) <= 5e-15 * np.max(np.abs(lo))


@pytest.mark.parametrize("xi", [1e-6, 0.01, 0.5, 0.999, 1.0 - 1e-9, 1.0 - 1e-15])
def test_radial_rule_orders_agree(xi, monkeypatch):
    # the nested norms rk_norm(k) are converged on radial_rule x
    # angular_rule: two orders per panel agree (to ~2e-16), and
    # rk_norm(0) meets the norm each profile was given by an independent
    # route (1 for f, the swapped order for g and h; to ~4e-15).  The
    # second check also sees the first radial panel [0, lo], which the
    # orders do not resolve: with lo ten thousand times larger it put
    # 1.3e-13 into ||h|| at xi = 0.01.  The families keep their radial
    # rows per xi and rule order, so each order here is a pass of its own
    # (test_nested_norms_share_one_chain_pass)
    for fam in (f_profile(xi), g_family(xi, 2.0), g_family(xi, 1.5), h_family(xi)):
        for k in range(4):
            coefs = tuple([0.0] * k + [1.0])
            monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 16)
            lo = fam.combo_norm(coefs)
            monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 24)
            hi = fam.combo_norm(coefs)
            assert lo == pytest.approx(hi, rel=1e-14, abs=0.0)
            if k == 0:
                assert lo == pytest.approx(fam.normalization, rel=5e-14, abs=0.0)


def test_nested_norms_share_one_chain_pass(monkeypatch):
    # rk_norm(0..3) and functional_z of g_2, g_3/2 and h at one xi combine
    # the rows of a single Laplace pass on the radial rule, shared by the
    # three families: one dilation rule, one evaluation of f.  A changed
    # rule order is a fresh pass, which test_radial_rule_orders_agree
    # relies on, and the first order's rows are still there afterwards
    xi = 0.4321
    passes = []
    real = multipartite._laplace

    def counted(x, r):
        passes.append((x, len(r), bipartite._ANGULAR_ORDER))
        return real(x, r)

    monkeypatch.setattr(multipartite, "_laplace", counted)
    multipartite._radial_family_rows.cache_clear()
    fams = (g_family(xi, 2.0), g_family(xi, 1.5), h_family(xi))
    n16 = len(bipartite.radial_rule(xi)[0])
    norms = [[fam.rk_norm(k) for k in range(4)] for fam in fams]
    z = (functional_z(2, fams[0]), functional_z(3, fams[2]))
    assert passes == [(xi, n16, 16)]
    assert z == (functional_z(2, fams[0]), functional_z(3, fams[2]))

    monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 24)
    n24 = len(bipartite.radial_rule(xi)[0])
    assert n24 != n16
    for fam, fam_norms in zip(fams, norms):
        assert fam.rk_norm(0) == pytest.approx(fam_norms[0], rel=1e-14, abs=0.0)
    assert passes == [(xi, n16, 16), (xi, n24, 24)]

    monkeypatch.setattr(bipartite, "_ANGULAR_ORDER", 16)
    assert [fam.rk_norm(0) for fam in fams] == [fam_norms[0] for fam_norms in norms]
    assert len(passes) == 2


def _per_cell_norms(prof, coefs_list, angular):
    # the nested norms with each combination taken per cell before any
    # reduction on the radial rule: per cell of radial_rule x angular_rule
    # for f (``angular``), per radius of their point route
    # (raw_derivative_combo) for the families, in blocks of 32 radii
    xi = prof.xi.value
    r, wr = bipartite.radial_rule(xi)
    gamma, wt = bipartite.angular_rule(xi)
    den = math.sqrt(2.0 * math.pi * ellip_k(xi) * (1.0 - xi))
    sq = np.zeros(len(coefs_list))
    for start in range(0, len(r), 32):
        block = r[start:start + 32]
        kernels = bipartite._exp_chain(np.outer(block, gamma)) if angular else None
        for i, coefs in enumerate(coefs_list):
            if angular:
                cell = sum(c * kernels[k] for k, c in enumerate(coefs))
                v = np.sum(wt * cell, axis=-1) / den
            else:
                v = prof.raw_derivative_combo(coefs, block)
            sq[i] += np.sum(wr[start:start + 32] * v * v)
    return np.sqrt(sq)


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-9])
def test_combo_norm_rows_match_per_cell_combination(xi):
    # combining the cached radial rows gives the norms of combining per
    # cell, each profile on its own cells, for the unit vectors of rk_norm
    # and the b combinations of functional_z
    coefs_list = [tuple([0.0] * k + [1.0]) for k in range(4)]
    coefs_list += [(0.0,) + tuple(float(b) for b in b_coefficients(n).b) for n in (2, 3)]
    profiles = ((f_profile(xi), True), (g_family(xi, 2.0), False), (g_family(xi, 1.5), False),
                (h_family(xi), False))
    for prof, angular in profiles:
        got = [prof.combo_norm(coefs) for coefs in coefs_list]
        want = _per_cell_norms(prof, coefs_list, angular)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("rho", [1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0])
def test_swapped_kernels_vs_mpmath(rho):
    # each kernel against its defining double integral over the substituted
    # measure, with the q integral taken independently of the library's
    # closed forms: arctangent for a = 2, Gauss hypergeometric for the
    # cube-root kernels,
    # int_0^1 q^j / (q^3 + B) dq = 2F1(1, a; a + 1; -1/B) / (3 a B), a = (j + 1)/3
    import mpmath as mp

    with mp.workdps(20):
        r = mp.mpf(rho)

        def q_int(j, big_b):
            a = mp.mpf(j + 1) / 3
            return mp.hyp2f1(1, a, a + 1, -1 / big_b) / (3 * a * big_b)

        k = mp.sqrt(r)
        g2 = 4 * mp.quad(lambda p: p**2 * (1 - k * p * mp.atan(1 / (k * p))), [0, 1])
        g32 = 9 * mp.quad(lambda p: p**3 * q_int(3, r * p**3), [0, 1])
        h = 9 * mp.quad(
            lambda p: (p - 1) * p**3 * (q_int(4, r * p**3) - q_int(3, r * p**3)), [0, 1])
    rv = np.array([rho])
    m_g32, m_h = multipartite._m_g32_h(rv)
    assert multipartite._m_g2(rv)[0] == pytest.approx(float(g2), rel=2e-15)
    assert m_g32[0] == pytest.approx(float(g32), rel=2e-15)
    assert m_h[0] == pytest.approx(float(h), rel=2e-15)
    assert np.array_equal(m_g32, _m_g32(rv)) and np.array_equal(m_h, _m_h(rv))


@pytest.mark.parametrize("xi", [0.01, 0.5, 0.9, 1.0 - 1e-9])
def test_shared_cube_root_pass_matches_separate_norms(xi):
    # one pass over the pairs for both cube-root kernels gives the norms
    # of one pass per kernel bit for bit
    g32 = g_family(xi, 1.5)
    h = h_family(xi)
    assert g32.normalization == _one_kernel_norm(xi, _m_g32, 2.0 / 3.0)
    assert h.normalization == _one_kernel_norm(xi, _m_h, abs(h._scale))


def test_z6_takes_one_cube_root_pass(monkeypatch):
    # at a fresh xi, z4, z6, the g_3/2 member and h, each asked for twice,
    # take one pass over the pairs for the g_2 norm and one for the g_3/2
    # and h norms together: one kernel call per block of pairs each
    xi = 0.4321
    passes, g2_calls, cube_calls = [], [], []
    real_norms = multipartite._swapped_norms
    real_g2 = multipartite._m_g2
    real_parts = multipartite._cube_root_parts

    def counted_norms(v, m):
        passes.append(v)
        return real_norms(v, m)

    def counted_g2(rho):
        g2_calls.append(rho.shape)
        return real_g2(rho)

    def counted_parts(rho):
        cube_calls.append(rho.shape)
        return real_parts(rho)

    monkeypatch.setattr(multipartite, "_swapped_norms", counted_norms)
    monkeypatch.setattr(multipartite, "_m_g2", counted_g2)
    monkeypatch.setattr(multipartite, "_cube_root_parts", counted_parts)
    multipartite._g2_norm.cache_clear()
    multipartite._cube_root_norms.cache_clear()
    n = len(bipartite.angular_rule(xi)[0])
    blocks = len(range(0, n, max(1, bipartite._PAIR_BLOCK // n)))
    try:
        for _ in range(2):
            z4_product(xi)
            z6_product(xi)
            g_family(xi, 1.5)
            h_family(xi)
    finally:
        multipartite._g2_norm.cache_clear()
        multipartite._cube_root_norms.cache_clear()
    assert passes == [xi, xi]
    assert len(g2_calls) == blocks and sum(shape[0] for shape in g2_calls) == n
    assert len(cube_calls) == blocks and sum(shape[0] for shape in cube_calls) == n


def test_cube_root_p_rule_is_read_only():
    p, p3w = multipartite._p_rule()
    assert multipartite._p_rule()[0] is p
    for arr in (p, p3w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5


@pytest.mark.parametrize("xi", [1.0 - 1e-4, 1.0 - 1e-6])
def test_nested_route_near_xi_one(xi):
    # the squared combinations fall off like 1/r over many decades below
    # r ~ 1/gamma(0); the ln r panels of radial_rule follow them, so
    # the nested route confirms both products to the digits of the
    # swapped order where strong squeezing leaves the products closest
    # to their infima
    z4 = z4_product(xi).product
    z6 = z6_product(xi).product
    assert functional_z(2, g_family(xi, 2.0)) == pytest.approx(z4, rel=1e-12, abs=0.0)
    assert functional_z(3, h_family(xi)) == pytest.approx(z6, rel=1e-12, abs=0.0)


def _laplace_references(xi, r):
    # g_2 and h / scale at r: int_1^inf mu(u) f(u r) du at 30 digits, with
    # f = C I0(beta x) e^(-alpha x) from mpmath's own Bessel function, on
    # u = 1 + y.  The integrand is divided by f(r), since mp.quad's
    # tolerance is absolute and f(r) falls to 1e-80 here (undivided, the
    # reference is off by up to 3.5e-7 at xi = 0.5, r >= 1000); the
    # breakpoints follow its decay, algebraic in y up to 1/(gamma0 r) and
    # like e^(-gamma0 r y) beyond.  Returns the two values and the larger
    # relative error estimate
    import mpmath as mp

    with mp.workdps(30):
        x_, r_ = mp.mpf(xi), mp.mpf(r)
        s, gap = mp.sqrt(x_), 1 - x_
        alpha, beta = (1 + x_) / (2 * gap), s / gap
        front = mp.sqrt(mp.pi / (2 * mp.ellipk(x_**2) * gap))
        decay = 2 * (1 + s) ** 2 / (gap * r_)  # 1 / (gamma0 r)
        f_r = mp.besseli(0, beta * r_) * mp.exp(-alpha * r_)
        memo = {}

        def f_ratio(y):  # f((1 + y) r) / f(r), shared by both weights
            if y not in memo:
                x = (1 + y) * r_
                memo[y] = mp.besseli(0, beta * x) * mp.exp(-alpha * x) / f_r
            return memo[y]

        pts = ([mp.mpf(0)] + [mp.mpf(64) ** j for j in range(20) if 64**j < decay / 8]
               + [decay * 8**k for k in range(-1, 3)] + [mp.inf])
        values, worst = [], 0.0
        for mu in (lambda u: -u ** mp.mpf(-1.5) / 2,
                   lambda u: u ** (-mp.mpf(5) / 3) - u ** (-mp.mpf(4) / 3)):
            v, err = mp.quad(lambda y: mu(1 + y) * f_ratio(y), pts, error=True, maxdegree=4)
            values.append(float(front * f_r * v))
            worst = max(worst, float(abs(err / v)))
    return values, worst


@pytest.mark.parametrize("xi, radii", [
    (0.5, (1e-6, 0.01, 1.0, 10.0, 100.0, 300.0)),
    (0.9, (1e-6, 0.01, 1.0, 10.0, 100.0, 300.0, 1000.0, 4096.0)),
])
def test_laplace_point_values_vs_mpmath(xi, radii):
    # point values of g_2 and h against their Laplace averages in mpmath,
    # out to r = 4096, where gamma0 r = 54 at xi = 0.9: to a few ulps
    # relative (the incomplete-gamma kernels lost 1.9e-12 of h at xi = 0.5,
    # r = 300, and 6.2e-11 at xi = 0.9, r = 4096)
    h = h_family(xi)
    r = np.array(radii)
    g2_values = g_family(xi, 2.0).raw_derivative_combo((1.0,), r)
    h_values = h.raw_derivative_combo((1.0,), r) / h._scale
    for i, radius in enumerate(radii):
        (g2_ref, h_ref), err = _laplace_references(xi, radius)
        assert err <= 1e-20
        assert g2_values[i] == pytest.approx(g2_ref, rel=5e-15, abs=0.0)
        assert h_values[i] == pytest.approx(h_ref, rel=5e-15, abs=0.0)


def test_functional_z_validation():
    prof = g_family(0.5, 2.0)
    with pytest.raises(ValueError):
        functional_z(0, prof)
    with pytest.raises(ValueError):
        functional_z(4, prof)  # profile only exposes three derivatives


def test_alpha_beta_certificate():
    assert alpha_beta_certificate() < 1e-10
    # independent recompute of both quadratic constraints
    root = math.sqrt(74.0)
    for sign in (1.0, -1.0):
        alpha = 9.0 / 8.0 * (9.0 + sign * root)
        beta = 3.0 / 4.0 * (24.0 + sign * root)
        r1 = alpha**2 - 3 * alpha * beta + 54 * alpha - (28 - 49 * (5 / 8) ** 2)
        r2 = beta**2 - 9 * alpha - 22.5 * beta + 130.5
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-10


def test_perturbed_coefficients_shift_z4(monkeypatch):
    # sensitivity control: corrupting b_2 by 5 percent must move the
    # nested product, proving the functional actually consumes the table
    prof = g_family(0.5, 2.0)
    clean = functional_z(2, prof)
    real = b_coefficients(2)
    fake = OperatorCoefficients(
        n=2, b=(real.b[0], real.b[1] * Fraction(21, 20)), prefactor=real.prefactor
    )

    def patched(n):
        return fake if n == 2 else b_coefficients(n)

    monkeypatch.setattr(multipartite, "b_coefficients", patched)
    dirty = multipartite.functional_z(2, prof)
    assert abs(dirty - clean) > 1e-4


def test_perturbed_kernel_shifts_z4(monkeypatch):
    # the same control for the primary route: corrupting the swapped-order
    # kernel by 5 percent must move the product through the norm
    clean = z4_product(0.5).product
    real = multipartite._m_g2
    monkeypatch.setattr(multipartite, "_m_g2", lambda rho: 1.05 * real(rho))
    multipartite._g2_norm.cache_clear()
    try:
        dirty = z4_product(0.5).product
    finally:
        multipartite._g2_norm.cache_clear()
    assert dirty == pytest.approx(clean / 1.05, rel=1e-12)
