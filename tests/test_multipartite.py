import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from minuncert.bipartite import XiParameter, f_closed, r_closed
from minuncert.multipartite import (
    OperatorCoefficients,
    alpha_beta_certificate,
    b_coefficients,
    family,
    functional_z,
    g_family,
    h_family,
    z_product,
    z4_product,
    z6_product,
)
import minuncert.bipartite as bipartite
import minuncert.multipartite as multipartite
import minuncert.quadrature as quadrature
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

# the exact windows as literals, independent of the report's derivation
PRODUCT_INFIMUM_2 = 0.125
PRODUCT_INFIMUM_4, SEPARABLE_BOUND_4 = 1.0 / 30.0, 1.0 / 16.0
PRODUCT_INFIMUM_6, SEPARABLE_BOUND_6 = 35.0 / 4096.0, 1.0 / 64.0


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


def test_float_prefactor_is_the_exact_one_rounded():
    # the products take prefactor_n (n^n/n!)^2 without fractions; the int
    # true division must round the exact Fraction bit for bit
    for n in range(1, 13):
        exact = b_coefficients(n).prefactor * Fraction(n**n, math.factorial(n)) ** 2
        assert multipartite._z(n, 1.0, 1.0) == float(exact)


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
        g, rg = prof.rows(r)
        assert abs((1.0 - a) * g + a * rg - f_closed(xi, r)) < 1e-10


def test_h_ode_residual():
    # -2 h + 3 r h' equals the normalized a = 3/2 member
    prof = h_family(0.5)
    base = g_family(0.5, 1.5)
    for r in (0.0, 0.4, 1.3, 3.0):
        h, rh = prof.rows(r)
        assert abs(-2.0 * h + 3.0 * rh - base.value(r)) < 1e-10


def test_g_value_at_origin_analytic():
    # (1 - a) g(0) = f(0), so the raw solution starts at -f(0)/(a - 1)
    f0 = f_closed(0.5, 0.0)
    g2 = g_family(0.5, 2.0).rows(0.0)[0]
    g32 = g_family(0.5, 1.5).rows(0.0)[0]
    assert g2 == pytest.approx(-f0, rel=1e-10)
    assert g32 == pytest.approx(-2.0 * f0, rel=1e-10)
    assert g2 == pytest.approx(G2_RAW0_HALF, rel=1e-11)
    # where 800 / (gamma0 r) overflows, the averages take their value at 0
    h = h_family(0.5)
    for r in (1e-310, 1e-305):
        assert g_family(0.5, 2.0).rows(r)[0] == g2
        assert h.rows(r)[0] == h.rows(0.0)[0]


def test_h_value_at_origin_analytic():
    h0 = h_family(0.5).rows(0.0)[0]
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
        fd = fd_rk_derivative(prof.value, 1, r, h=1e-3)
        rg = prof.rows(r)[1] / prof.normalization
        assert rg == pytest.approx(fd, rel=1e-6, abs=1e-9)
    # no product needs a higher row, and none is served
    with pytest.raises(ValueError):
        prof.rk_norm(2)


def test_first_derivative_of_ode_pointwise():
    # differentiating (1 - a) g + a r g' = f once and multiplying by r:
    # (1 - a) D g + a D^2 g = D f with D = r d/dr, i.e. r g' + a r^2 g''
    # = r f'.  D g is row 1, D^2 g its central difference, and D f comes
    # from f's own angular row
    radii = (0.5, 1.7, 4.2)
    f_rows = bipartite._angular_kernel_integral(0.5, radii, 16)[1]
    for a in (1.5, 2.0):
        prof = g_family(0.5, a)

        def row1(x, prof=prof):
            return prof.rows(x)[1]

        for r, rf in zip(radii, f_rows):
            lhs = (1.0 - a) * row1(r) + a * fd_rk_derivative(row1, 1, r, h=1e-3)
            assert lhs == pytest.approx(rf, rel=1e-10, abs=1e-12)


def test_first_derivative_of_h_ode_pointwise():
    # the same for -2 h + 3 r h' = b: -2 D h + 3 D^2 h = D b
    h = h_family(0.5)
    base = g_family(0.5, 1.5)

    def row1(x):
        return h.rows(x)[1]

    for r in (0.6, 2.3):
        lhs = -2.0 * row1(r) + 3.0 * fd_rk_derivative(row1, 1, r, h=1e-3)
        rg = base.rows(r)[1] / base.normalization
        assert lhs == pytest.approx(rg, rel=1e-9, abs=1e-12)


def _combo_norm(xi, rows, coefs):
    # ||coefs[0] v + coefs[1] r v'|| of the raw rows, summed on radial_rule(xi)
    weight = bipartite.radial_rule(xi)[1]
    v = sum(c * np.asarray(row) for c, row in zip(coefs, rows))
    return math.sqrt(float(np.sum(weight * v * v)))


def test_h_scalar_product_relations():
    # integration by parts on the half line couples the two rows:
    # (h, r h') = int r (h^2 / 2)' dr = -||h||^2 / 2
    for xi in (0.01, 0.5, 0.9):
        h = h_family(xi)
        n0 = h.rk_norm(0)
        v, rv = map(np.asarray, h.rows())
        d01 = float(np.sum(bipartite.radial_rule(xi)[1] * v * rv))
        assert d01 == pytest.approx(-0.5 * n0 * n0, rel=1e-12, abs=0.0)


def test_h_cauchy_schwarz_consequence():
    # |(h, r h')| <= ||h|| ||r h'|| with (h, r h') = -||h||^2 / 2
    h = h_family(0.5)
    assert h.rk_norm(1) >= 0.5 * h.rk_norm(0) - 1e-9


def test_h_norms_tie_back_to_base():
    # ||-2 h + 3 r h'||^2 = 10 ||h||^2 + 9 ||r h'||^2 by the scalar product
    # relation, and both equal the squared norm of the normalized base,
    # each side by its own nested pass
    for xi in (0.01, 0.5, 0.9):
        h = h_family(xi)
        base = g_family(xi, 1.5)
        rhs = (base.rk_norm(0) / base.normalization) ** 2
        expanded = 10.0 * h.rk_norm(0) ** 2 + 9.0 * h.rk_norm(1) ** 2
        assert expanded == pytest.approx(rhs, rel=1e-12, abs=0.0)
        assert _combo_norm(xi, h.rows(), (-2.0, 3.0)) ** 2 == pytest.approx(rhs, rel=1e-12, abs=0.0)


def test_family_validation():
    with pytest.raises(ValueError):
        g_family(0.5, 0.5)
    with pytest.raises(ValueError):
        g_family(0.5, 3.0)
    with pytest.raises(ValueError):
        g_family(1.5, 2.0)
    prof = g_family(0.5, 2.0)
    with pytest.raises(ValueError):
        prof.rk_norm(2)


# --- products -------------------------------------------------------------


def test_z4_frozen_and_window():
    rep = z4_product(0.5)
    assert rep.parties == 4
    assert rep.route == "mellin"
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
    # the product takes the norm of route A, the check the nested one
    for xi in (0.5, 0.9):
        norm = g_family(xi, 2.0).rk_norm(0)
        shortcut = PRODUCT_INFIMUM_4 * 0.5 * (1.0 + r_closed(xi)) / (norm * norm)
        assert z4_product(xi).product == pytest.approx(shortcut, rel=1e-12, abs=0.0)


def test_z6_frozen_and_window():
    rep = z6_product(0.5)
    assert rep.parties == 6
    assert rep.route == "mellin"
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
    assert z4_product(0.5).product == pytest.approx(functional_z(2, 0.5), rel=1e-12, abs=0.0)
    assert z6_product(0.5).product == pytest.approx(functional_z(3, 0.5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-9])
def test_functional_z_is_the_norm_ratio(xi):
    # z_2n = prefactor_n c^2 ||r f'||^2 / ||v||^2, with the nested norms of
    # f's row k = 1 and of the family: c^2 = 1 for g_2 and 9/4 for h, whose
    # rows carry the scale -2 / (3 ||g_3/2||)
    r, weight = bipartite.radial_rule(xi)
    rf = math.sqrt(bipartite._norm_sq(weight, bipartite._angular_kernel_integral(xi, r, 16)[1]))
    g2 = g_family(xi, 2.0).rk_norm(0)
    scale = -2.0 / (3.0 * g_family(xi, 1.5).normalization)
    h_raw = h_family(xi).rk_norm(0) / abs(scale)
    assert functional_z(2, xi) == pytest.approx(PRODUCT_INFIMUM_4 * (rf / g2) ** 2, rel=2e-15)
    assert functional_z(3, xi) == pytest.approx(2.25 / 560.0 * (rf / h_raw) ** 2, rel=2e-15)


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


# f (the key (n, 0) of every chain), then g_2 / c, g_3/2 / c and v_3 (h / c)
_F, _G2, _G32, _H = (multipartite.Poles(2, 0), multipartite.Poles(2, 1),
                     multipartite.Poles(3, 1), multipartite.Poles(3, 2))


@pytest.mark.parametrize("family", ["g2", "g32", "h"])
@pytest.mark.parametrize("xi", [1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15])
def test_family_norm_rule_orders_agree(family, xi):
    # route A's norms (of g_2, g_3/2 and h / scale) are converged on the
    # angular rule and the t-rule together: two orders per panel of both
    # agree.  The density is kept per xi and rule order, so each order is a
    # pass of its own
    key = {"g2": _G2, "g32": _G32, "h": _H}[family]
    norms = [multipartite._family_norms(xi, key, order) for order in (16, 24)]
    assert norms[0] == pytest.approx(norms[1], rel=2e-15, abs=0.0)


@pytest.mark.parametrize("xi", [0.01, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-12])
def test_family_chains_rule_orders_agree(xi):
    # point values of every kernel of the g_2, g_3/2 and h chains are
    # converged on the dilation rule: the rows v and r v' of two orders per
    # panel of the Laplace pass agree to a few ulps of the column maximum,
    # out to where e^(-gamma(0) r) is ~e^-40
    s = math.sqrt(xi)
    gamma0 = 0.5 * (1.0 - xi) / (1.0 + s) ** 2
    r = np.concatenate(([0.0], np.geomspace(1e-3, max(4096.0, 40.0 / gamma0), 200)))
    for key in (_G2, _G32, _H):
        a = key.k / key.n
        lo_rows, hi_rows = ((v, a * v + sibling) for v, sibling in (
            multipartite._laplace(xi, r, key, order) for order in (16, 24)))
        for lo, hi in zip(lo_rows, hi_rows):
            assert np.max(np.abs(lo - hi)) <= 5e-15 * np.max(np.abs(lo))


def _rule_norms(xi, key, order):
    """[||v||, ||r v'||] of the family ``key`` (f at k = 0) on the radial rule of ``order``."""
    mesh = bipartite._radial_mesh(xi, order)
    if key.k == 0:
        rows = bipartite._angular_kernel_integral(xi, mesh.r, order)
    else:
        chain = multipartite._chain(xi, key.n, order)
        v, sibling = chain[key.k], chain[key.k - 1]
        rows = v, [key.k / key.n * y + s for y, s in zip(v, sibling)]
    return [math.sqrt(bipartite._norm_sq(mesh.weight, row)) for row in rows]


@pytest.mark.parametrize("xi", [1e-6, 0.01, 0.5, 0.999, 1.0 - 1e-9, 1.0 - 1e-15])
def test_radial_rule_orders_agree(xi):
    # the nested norms of rk_norm(k) are converged on radial_rule x
    # angular_rule: two orders per panel agree (to ~2e-16), and
    # rk_norm(0) meets the norm each profile was given by an independent
    # route (1 for f, the Mellin density for g and h; to ~4e-15).  The
    # second check also sees the first radial panel [0, lo], which the
    # orders do not resolve: with lo ten thousand times larger it put
    # 1.3e-13 into ||h|| at xi = 0.01.  The families keep their radial
    # rows per xi and rule order, so each order here is a pass of its own
    # (test_nested_norms_share_one_chain_pass)
    for key in (_F, _G2, _G32, _H):
        lo, hi = (_rule_norms(xi, key, order) for order in (16, 24))
        assert lo == pytest.approx(hi, rel=1e-14, abs=0.0)
        norm = math.sqrt(multipartite._family_norms(xi, key, 16)) if key.k else 1.0
        assert lo[0] == pytest.approx(norm, rel=5e-14, abs=0.0)


def _fresh(monkeypatch, module, name, wrap=None):
    """A fresh, empty copy of the cache ``module.name`` for one test, around
    ``wrap`` of the function it caches if given; the module's own cache
    stays as it was."""
    function = getattr(module, name).__wrapped__
    cached = lru_cache(maxsize=32)(wrap(function) if wrap else function)
    monkeypatch.setattr(module, name, cached)
    return cached


def test_nested_norms_share_one_chain_pass(monkeypatch):
    # rk_norm(0) and rk_norm(1) of g_2, g_3/2 and h and functional_z(2)
    # and (3) at one xi combine the rows of one cumulative pass per chain,
    # (2, 0..1) for g_2 and (3, 0..2) for g_3/2 and h, and read no angular
    # pass, as functional_z's r f' is the mesh's closed form.  A second rule
    # order is a fresh pass, which test_radial_rule_orders_agree relies
    # on, and the first order's rows are still there afterwards
    xi = 0.4321
    passes = []
    real_angular = bipartite._angular_kernel_integral

    def counted(chain):
        def pass_(x, n, order):
            passes.append(("chain", x, n, order))
            return chain(x, n, order)
        return pass_

    def counted_angular(x, r, order):
        passes.append(("angular", x, len(r), order))
        return real_angular(x, r, order)

    _fresh(monkeypatch, multipartite, "_chain", counted)
    monkeypatch.setattr(bipartite, "_angular_kernel_integral", counted_angular)
    fams = (g_family(xi, 2.0), g_family(xi, 1.5), h_family(xi))
    norms = [[fam.rk_norm(k) for k in range(2)] for fam in fams]
    z = (functional_z(2, xi), functional_z(3, xi))
    first = [("chain", xi, 2, 16), ("chain", xi, 3, 16)]
    assert passes == first
    assert z == (functional_z(2, xi), functional_z(3, xi))

    assert len(bipartite._radial_mesh(xi, 24).r) != len(bipartite.radial_rule(xi)[0])
    for key in (_G2, _G32, _H):
        assert _rule_norms(xi, key, 24)[0] == pytest.approx(_rule_norms(xi, key, 16)[0],
                                                            rel=1e-14, abs=0.0)
    assert passes == first + [("chain", xi, 2, 24), ("chain", xi, 3, 24)]

    assert [fam.rk_norm(0) for fam in fams] == [fam_norms[0] for fam_norms in norms]
    assert z == (functional_z(2, xi), functional_z(3, xi))
    assert len(passes) == 4


def _record_rule_orders(monkeypatch):
    """Empty every (xi, order)-cached layer; return the (name, order) list of rules then asked for."""
    asked = []

    def recorded(function):
        def call(*args):
            asked.append((function.__name__, args[-1]))
            return function(*args)
        return call

    nodes = recorded(quadrature._gauss_legendre)
    for module in (quadrature, bipartite, multipartite):
        monkeypatch.setattr(module, "_gauss_legendre", nodes)
    monkeypatch.setattr(bipartite, "angular_rule", recorded(bipartite.angular_rule))
    _fresh(monkeypatch, bipartite, "_radial_mesh", recorded)
    _fresh(monkeypatch, multipartite, "_chain")
    _fresh(monkeypatch, bipartite, "_mellin_density")
    return asked


# every other layer cached per xi and rule order, asked for at order 24,
# and the rules it must read: (a call, the names it asks for an order)
_ORDER_LAYERS = {
    "_radial_mesh": (lambda: bipartite._radial_mesh(0.5, 24),
                     {"_radial_mesh", "_gauss_legendre"}),
    "_mellin_density": (lambda: bipartite._mellin_density(0.5, 24),
                        {"angular_rule", "_gauss_legendre"}),
}


@pytest.mark.parametrize("layer", list(_ORDER_LAYERS))
def test_cached_layers_read_rules_of_their_own_order(layer, monkeypatch):
    # a layer is cached by its rule order, so everything it reads must be
    # of that order too: built on fresh caches at 24, it asks every rule it
    # reads for 24 alone, and so is the same whatever order ran before it.
    # A 24-point density built on the angular rule of another order differs
    # from its own by a few ulps only, which no agreement of two orders
    # would show
    asked = _record_rule_orders(monkeypatch)
    build, names = _ORDER_LAYERS[layer]
    build()
    assert {name for name, _ in asked} == names
    assert {order for _, order in asked} == {24}


@pytest.mark.parametrize("n", range(2, 6))
def test_chain_reads_the_mesh_of_its_own_order(n, monkeypatch):
    # a chain is keyed by its rule order, and so is everything it reads:
    # on fresh caches the 24-point chain asks the mesh and the
    # Gauss-Legendre nodes for 24 alone, its rows are the mesh's length,
    # and it is the same, bit for bit, when a 16-point pass ran first
    asked = _record_rule_orders(monkeypatch)
    chain = multipartite._chain(0.5, n, 24)
    assert {name for name, _ in asked} == {"_radial_mesh", "_gauss_legendre"}
    assert {order for _, order in asked} == {24}
    size = len(bipartite._radial_mesh(0.5, 24).r)
    assert {len(row) for row in chain} == {size}

    _record_rule_orders(monkeypatch)
    multipartite._chain(0.5, n, 16)
    assert multipartite._chain(0.5, n, 24) == chain


def test_battery_lays_out_one_mesh_per_xi(monkeypatch):
    # on fresh caches, one verify battery builds route B's mesh once for
    # each xi it reads (0.5 for the chains and the vacuum row, 0.7 for the
    # residual and overlap rows), and every chain's f is the mesh's f, bit
    # for bit
    from minuncert import checks

    built = []

    def counted(mesh):
        def build(xi, order):
            built.append((xi, order))
            return mesh(xi, order)
        return build

    meshes = _fresh(monkeypatch, bipartite, "_radial_mesh", counted)
    chains = _fresh(monkeypatch, multipartite, "_chain")
    rows, ok = checks.run_battery(200)
    assert ok
    assert sorted(built) == [(0.5, 16), (0.7, 16)]
    assert meshes.cache_info().misses == 2
    mesh = meshes(0.5, 16)
    assert chains.cache_info().currsize == 2
    for n in (2, 3):
        assert chains(0.5, n, 16)[0] == mesh.f[:len(mesh.r)]
    assert chains.cache_info().misses == 2


def _per_cell_norms(xi, coefs_list, point_rows):
    # the nested norms with each combination taken per cell before any
    # reduction on the radial rule: per cell of radial_rule x angular_rule
    # for f (``point_rows`` None), per radius of their point route
    # (``rows(r)``) for the families, in blocks of 32 radii
    r, wr = bipartite.radial_rule(xi)
    gamma, wt = bipartite.angular_rule(xi, 16)
    den = math.sqrt(2.0 * math.pi * ellip_k(xi) * (1.0 - xi))
    sq = np.zeros(len(coefs_list))
    for start in range(0, len(r), 32):
        block = r[start:start + 32]
        if point_rows is None:
            x = np.outer(block, gamma)
            kernels = (np.exp(-x), -x * np.exp(-x))
        else:
            rows = point_rows(block)
        for i, coefs in enumerate(coefs_list):
            if point_rows is None:
                cell = sum(c * kernels[k] for k, c in enumerate(coefs))
                v = np.sum(wt * cell, axis=-1) / den
            else:
                v = sum(c * row for c, row in zip(coefs, rows))
            sq[i] += np.sum(wr[start:start + 32] * v * v)
    return np.sqrt(sq)


@pytest.mark.parametrize("xi", [0.01, 0.5, 1.0 - 1e-9])
def test_combo_norm_rows_match_per_cell_combination(xi):
    # combining the rows on the radial rule gives the norms of combining per
    # cell, each profile on its own cells, for the unit vectors of rk_norm
    # and the combinations of the ODEs
    coefs_list = [(1.0,), (0.0, 1.0), (-1.0, 2.0), (-0.5, 1.5), (-2.0, 3.0)]
    f_rows = bipartite._angular_kernel_integral(xi, bipartite.radial_rule(xi)[0], 16)
    families = (g_family(xi, 2.0), g_family(xi, 1.5), h_family(xi))
    for rows, point_rows in ((f_rows, None), *((fam.rows(), fam.rows) for fam in families)):
        got = [_combo_norm(xi, rows, coefs) for coefs in coefs_list]
        want = _per_cell_norms(xi, coefs_list, point_rows)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_products_build_the_density_once(monkeypatch):
    # at a fresh xi, z4, z6, the g_3/2 member, h and the two-party
    # quadrature route, each asked for twice, build route A's density once
    # (one angular rule); every norm and product then reads the cached one
    xi = 0.4321
    builds = []
    real = bipartite.angular_rule

    def counted(x, order):
        builds.append((x, order))
        return real(x, order)

    monkeypatch.setattr(bipartite, "angular_rule", counted)
    bipartite._mellin_density.cache_clear()
    for _ in range(2):
        z4_product(xi)
        z6_product(xi)
        g_family(xi, 1.5)
        h_family(xi)
        bipartite.uncertainty_product(xi, "quadrature")
    assert builds == [(xi, 16)]


@pytest.mark.parametrize("xi", [1.0 - 1e-4, 1.0 - 1e-6])
def test_nested_route_near_xi_one(xi):
    # the squared combinations fall off like 1/r over many decades below
    # r ~ 1/gamma(0); the ln r panels of radial_rule follow them, so
    # the nested route confirms both products to the digits of route A
    # where strong squeezing leaves the products closest
    # to their infima
    z4 = z4_product(xi).product
    z6 = z6_product(xi).product
    assert functional_z(2, xi) == pytest.approx(z4, rel=1e-12, abs=0.0)
    assert functional_z(3, xi) == pytest.approx(z6, rel=1e-12, abs=0.0)


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
    r = np.array(radii)
    g2_values = g_family(xi, 2.0).rows(r)[0]
    h_values = h_family(xi).rows(r)[0] / (-2.0 / (3.0 * g_family(xi, 1.5).normalization))
    for i, radius in enumerate(radii):
        (g2_ref, h_ref), err = _laplace_references(xi, radius)
        assert err <= 1e-20
        assert g2_values[i] == pytest.approx(g2_ref, rel=5e-15, abs=0.0)
        assert h_values[i] == pytest.approx(h_ref, rel=5e-15, abs=0.0)


@pytest.mark.parametrize("r", [np.linspace(0.0, 4.0, 401), [0.0, 1.3, 5.0], 1.0],
                         ids=["linspace", "three", "scalar"])
@pytest.mark.parametrize("xi", [1e-6, 0.5, 0.9, 1.0 - 1e-12])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_rows_are_the_laplace_pass(n, xi, r):
    # rows(r) hands the validated radii to the Laplace pass as they are:
    # the rows are c [v, (k/n) v + sibling] of v_n's key, c = 1, to the bit,
    # a scalar radius gives shape (2,), and value a float
    if isinstance(r, np.ndarray):
        r = r ** (2 * n)
    fam = family(n, xi)
    key = multipartite.Poles(n, n - 1)
    v, sibling = multipartite._laplace(xi, np.atleast_1d(np.asarray(r, dtype=float)), key, 16)
    want = np.array([v, key.k / key.n * v + sibling])
    got = fam.rows(r)
    value = fam.value(r)
    if np.ndim(r) == 0:
        want = want[:, 0]
        assert got.shape == (2,) and type(value) is float
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.asarray(value).tobytes() == (want[0] / fam.normalization).tobytes()


def test_one_surface_keyed_by_n():
    # family(n) is v_n with scale 1 and its norm on route A; g_2 = v_2 / 2
    # and h = v_3 / (3 ||(3, 1)||) are multiples of it, so their normalized
    # profiles are its own; z_product(n) is the report of z4/z6 and, at
    # n = 1, the two-party product on route A; route B stops at its cap
    r = np.linspace(0.0, 4.0, 9)
    for n in range(2, 7):
        fam = family(n, 0.5)
        key = multipartite.Poles(n, n - 1)
        assert fam.normalization == math.sqrt(multipartite._family_norms(0.5, key, 16))
        assert np.all(np.isfinite(fam.value(r)))
    assert np.array_equal(family(2, 0.5).value(r), g_family(0.5).value(r))
    np.testing.assert_allclose(family(3, 0.5).value(r), h_family(0.5).value(r), rtol=1e-15)
    for bad in (1, 2.0, "3"):
        with pytest.raises(ValueError):
            family(bad, 0.5)
    assert z_product(2, 0.9) == z4_product(0.9) and z_product(3, 0.9) == z6_product(0.9)
    for xi in (0.01, 0.5, 0.9):
        assert z_product(1, xi).product == pytest.approx(
            bipartite.uncertainty_product(xi).product, rel=2e-15, abs=0.0)
    with pytest.raises(ValueError, match=r"\[2, 5\]"):
        functional_z(multipartite.ROUTE_B_MAX_N + 1, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_routes_agree_for_every_nested_n(n):
    # one product formula on both routes: route A's density norm of v_n and
    # route B's radial norms of v_n and r f', for every n the nested route
    # serves, through xi -> 1
    for xi in (1e-6, 0.01, 0.5, 0.9, 1.0 - 1e-12, 1.0 - 1e-15):
        report = multipartite.z_product(n, xi)
        assert report.parties == 2 * n
        assert functional_z(n, xi) == pytest.approx(report.product, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("xi", [1e-6, 0.5, 1.0 - 1e-12])
def test_cumulative_pass_meets_the_laplace_averages(xi):
    # route B's rows on the radial rule come from running integrals down
    # its ln r panels and, on [0, lo], from polynomials in (r / lo)^(1/n);
    # the Laplace averages of the point values take each radius on a rule
    # of its own.  For every family (n, k) of n = 2..5 the two evaluators'
    # pairs (v, sibling) meet to 1e-13 of the column's maximum (measured:
    # 3e-14 at most, at xi = 1e-6 near the top of the rule), [0, lo]
    # included
    r = bipartite.radial_rule(xi)[0]
    for n in range(2, 6):
        # a pass holds its own chain (n, 0..n - 1) alone
        assert len(multipartite._chain(xi, n, bipartite._ANGULAR_ORDER)) == n
        for k in range(1, n):
            key = multipartite.Poles(n, k)
            averages = multipartite._laplace(xi, np.asarray(r), key, 16)
            for row, average in zip(multipartite._rule_rows(xi, key), averages):
                assert len(row) == len(r)
                scale = np.max(np.abs(average))
                assert np.max(np.abs(np.asarray(row) - average)) <= 1e-13 * scale


@pytest.mark.parametrize("xi", [1e-6, 0.5, 1.0 - 1e-12])
def test_f_is_the_first_key_of_every_chain(xi):
    # (n, 0) is f: the sibling of (n, 1) from both evaluators is f on its
    # own arrangement C i0e(beta r) e^(-gamma0 r), to the bit, in every chain
    r = bipartite.radial_rule(xi)[0]
    for n in range(2, 6):
        key = multipartite.Poles(n, 1)
        assert key.sibling == (n, 0)
        assert multipartite._rule_rows(xi, key)[1] == tuple(bipartite._f_i0e(xi, r))
        laplace = multipartite._laplace(xi, np.asarray(r), key, 16)[1]
        assert np.array_equal(laplace, bipartite._f_i0e(xi, np.asarray(r)))


def test_laplace_pass_evaluates_only_the_keys_asked(monkeypatch):
    # a profile on caller-given radii asks the Laplace pass for its own key,
    # and the pass weighs only that key and, above k = 1, its sibling (f
    # itself at k = 1 takes no weight): g_2 needs no weight of g_3/2 or h,
    # and h none of g_2
    calls, weights = [], []
    real, real_weight = multipartite._laplace, multipartite._weight

    def recorded(xi, r, key, order):
        calls.append(key)
        return real(xi, r, key, order)

    def weighed(lu, key):
        weights.append(key)
        return real_weight(lu, key)

    monkeypatch.setattr(multipartite, "_laplace", recorded)
    monkeypatch.setattr(multipartite, "_weight", weighed)
    r = np.linspace(0.0, 4.0, 9)
    g_family(0.9).rows(r)
    h_family(0.9).rows(r)
    v2, v3 = multipartite._v_key(2), multipartite._v_key(3)
    assert calls == [v2, v3]
    assert weights == [v2, v3, v3.sibling]
    assert v2.sibling == (2, 0) and v3.sibling == v3._replace(k=1)


def test_nested_z8_z10_ask_for_their_own_key_alone(monkeypatch):
    # functional_z(n) reads one cached pass of its own chain (n, 0..n - 1)
    # on the rule of the xi: z8 and z10 add the chains 4 and 5 beside
    # those of z4 and z6 and leave them as they are, and a repeated
    # product is a cache hit.  Each chain evaluates f, to the same bits
    xi = 0.2345
    calls = []

    def recorded(chain):
        def pass_(x, n, order):
            out = chain(x, n, order)
            calls.append((n, len(out), {len(row) for row in out}))
            return out
        return pass_

    cached = _fresh(monkeypatch, multipartite, "_chain", recorded)
    z = [functional_z(n, xi) for n in (4, 5, 2, 3, 4)]
    assert z[4] == z[0]
    size = {len(bipartite.radial_rule(xi)[0])}
    assert calls == [(4, 4, size), (5, 5, size), (2, 2, size), (3, 3, size)]
    info = cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (4, 4, 1)
    assert len({cached(xi, n, bipartite._ANGULAR_ORDER)[0] for n in range(2, 6)}) == 1


# g_2 / c, g_3/2 / c, v_3 (h up to its factor c), then v_4 and v_5
_WEIGHT_KEYS = [multipartite.Poles(2, 1), multipartite.Poles(3, 1), multipartite.Poles(3, 2),
                multipartite._v_key(4), multipartite._v_key(5)]


def test_laplace_weight_is_its_partial_fractions():
    # prod 1/(-s - p_j) = sum_j A_j / (-s - p_j), A_j = prod_(i != j)
    # 1/(p_j - p_i), and 1/(-s - p) is the Mellin transform of -u^(-1-p):
    # the Beta form of the weight must equal sum_j A_j (-u^(-1-p_j)) for the
    # poles p_j = j/n, in mpmath at 30 digits, where the partial fractions
    # cancel near u = 1, and the library's floats must meet it to a few
    # ulps.  Its mass, the value at the origin over f(0), is prod 1/(-p_j)
    import mpmath as mp

    y = np.array([1e-3, 1.0, 9.0, 999999.0])
    with mp.workdps(30):
        for key in _WEIGHT_KEYS:
            mu = multipartite._weight(np.log1p(y), key)
            n, k = key
            poles = [mp.mpf(j) / n for j in range(1, k + 1)]
            amp = [mp.fprod(1 / (pj - pi) for pi in poles if pi is not pj) for pj in poles]
            mass = mp.fprod(-1 / pj for pj in poles)
            assert abs(mp.fsum(a * -1 / pj for a, pj in zip(amp, poles)) / mass - 1) < 1e-25
            assert multipartite._at_origin(key) == float(mass)
            for yi, got in zip(y, mu):
                u = 1 + mp.mpf(yi)
                fractions = mp.fsum(a * -u ** (-1 - pj) for a, pj in zip(amp, poles))
                beta = ((-1) ** k * mp.mpf(n) ** (k - 1) / mp.factorial(k - 1)
                        * u ** (-1 - poles[0]) * (1 - u ** -poles[0]) ** (k - 1))
                # the sum cancels to y^(k - 1) of its terms A_j u^(-1-p_j):
                # 12 of the 30 digits for v_5 at u = 1 + 1e-3
                assert abs(beta / fractions - 1) < 1e-17
                assert got == pytest.approx(float(fractions), rel=4e-15, abs=0.0)
    # the masses (-n)^k / k! of g_2 / c, g_3/2 / c and v_3, exactly
    assert [multipartite._at_origin(key) for key in _WEIGHT_KEYS[:3]] == [-2.0, -3.0, 4.5]


def test_functional_z_validation():
    # the nested route holds route A's digits for n = 2..5 only: beyond, the
    # radial rule's lower end leaves out mass of v_n
    for n in (0, 1, 6, 12, 2.0, True, "3", None):
        with pytest.raises(ValueError, match=r"n must be an integer in \[2, 5\].*lower end"):
            functional_z(n, 0.5)
    with pytest.raises(ValueError):
        functional_z(2, 1.5)


def test_z_product_validation():
    # n is checked as family and functional_z check it, before any sum:
    # an int >= 1, bools refused, or a ValueError that names n
    for n in (0, -1, 2.0, "2", True, None):
        with pytest.raises(ValueError, match=rf"n must be an integer >= 1, got {n!r}"):
            z_product(n, 0.5)
    assert z_product(1, 0.5).parties == 2


def test_route_b_cap_lives_in_the_rule_rows():
    # every nested norm reads the rule rows through one accessor, which
    # refuses n beyond ROUTE_B_MAX_N as functional_z does: there the rule
    # misses route A's normalization (1.5e-14 at n = 6); the point values
    # at given radii still serve every n
    top = multipartite.ROUTE_B_MAX_N
    r = np.linspace(0.0, 4.0, 9)
    for n in (top + 1, 8, 12):
        fam = family(n, 0.5)
        for k in (0, 1):
            with pytest.raises(ValueError, match=rf"\[2, {top}\], got {n}.*lower end"):
                fam.rk_norm(k)
        assert np.all(np.isfinite(fam.value(r))) and np.all(np.isfinite(fam.rows(r)))
    with pytest.raises(ValueError, match=r"lower end"):
        multipartite._rule_rows(0.5, multipartite.Poles(top + 1, 1))
    assert family(top, 0.5).rk_norm(0) == pytest.approx(family(top, 0.5).normalization,
                                                        rel=5e-14, abs=0.0)


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


def _times_root(poly, root):
    # the coefficients, constant first, of poly(x) (x - root)
    out = [Fraction(0)] + list(poly)
    for i, c in enumerate(poly):
        out[i] -= root * c
    return out


def test_b_table_is_the_factored_operator():
    # r^k d^k/dr^k = D (D - 1)...(D - k + 1) for D = r d/dr, so the b
    # combination of the rows is P_n(D) with P_n(x) = sum_k b_k x(x - 1)
    # ...(x - k + 1).  Exactly, as polynomials, P_n(x) = (n^n/n!)
    # prod_(j<n) (x - j/n): the factored operator that the nested route
    # applies to each family in closed form, as a multiple of D f.  Its
    # value at x = -1/2 gives the infima, prefactor_n P_n(-1/2)^2
    # = 3 n! / (3n)! (prod_(k<n) (n/2 + k))^2
    infima = {}
    for n in range(1, 13):
        ops = b_coefficients(n)
        table = [Fraction(0)] * (n + 1)
        falling = [Fraction(1)]
        for bk in ops.b:
            falling = _times_root(falling, len(falling) - 1)
            for i, c in enumerate(falling):
                table[i] += bk * c
        factored = [Fraction(n**n, math.factorial(n))]
        for j in range(n):
            factored = _times_root(factored, Fraction(j, n))
        assert table == factored
        at_half = sum(c * Fraction(-1, 2) ** i for i, c in enumerate(table))
        rising = math.prod(Fraction(n, 2) + k for k in range(n))
        infima[n] = ops.prefactor * at_half**2
        assert infima[n] == Fraction(3 * math.factorial(n), math.factorial(3 * n)) * rising**2
        # a report takes its infimum from its party count, rounded once
        report = bipartite.UncertaintyReport(2 * n, XiParameter(0.5), 1.5 * float(infima[n]), "")
        assert report.infimum == float(infima[n])
    assert [float(infima[n]) for n in (1, 2, 3)] == [
        PRODUCT_INFIMUM_2, PRODUCT_INFIMUM_4, PRODUCT_INFIMUM_6]


def test_scaled_infimum_rises_below_one_over_root_three():
    # 4^n inf_n = 3 n! prod_(k<n) (n + 2k)^2 / (3n)! rises strictly with n
    # and stays below its limit 1/sqrt(3), exactly through n = 300: the
    # separable bound 4^(-n) exceeds the infimum by a factor between sqrt(3)
    # and 2 for every party count.  A report rounds that infimum once
    last = Fraction(0)
    for n in range(1, 301):
        scaled = Fraction(3 * math.factorial(n) * math.prod(n + 2 * k for k in range(n)) ** 2,
                          math.factorial(3 * n))
        assert last < scaled and 3 * scaled * scaled < 1
        last = scaled
        infimum = float(scaled / 4**n)
        assert bipartite.UncertaintyReport(2 * n, XiParameter(0.5), 1.5 * infimum,
                                           "").infimum == infimum


def test_perturbed_kernel_shifts_z4(monkeypatch):
    # the same control for the primary route: scaling the weights of route
    # A's density by 5 percent must move the product through ||g_2||^2 by
    # exactly 1/1.05, and leave the nested route, which never reads the
    # density, where it was
    clean = z4_product(0.5).product
    nested = functional_z(2, 0.5)
    real = bipartite._mellin_density

    def scaled(xi, order):
        t, wrho = real(xi, order)
        return t, tuple(1.05 * w for w in wrho)

    monkeypatch.setattr(bipartite, "_mellin_density", scaled)
    _fresh(monkeypatch, multipartite, "_chain")
    dirty = z4_product(0.5).product
    dirty_nested = functional_z(2, 0.5)
    assert dirty == pytest.approx(clean / 1.05, rel=1e-12)
    assert dirty_nested == nested


def test_perturbed_rule_rows_shift_nested_z4(monkeypatch):
    # the converse: scaling route B's rows on the radial rule by 5 percent
    # must move the nested product through ||g_2|| alone, by 1/1.05^2, and
    # leave route A, which never reads them, where it was
    clean = z4_product(0.5).product
    nested = functional_z(2, 0.5)
    real = multipartite._chain
    monkeypatch.setattr(multipartite, "_chain", lambda xi, n, order: tuple(
        tuple(1.05 * y for y in row) for row in real(xi, n, order)))
    dirty = z4_product(0.5).product
    dirty_nested = functional_z(2, 0.5)
    assert dirty_nested == pytest.approx(nested / 1.05**2, rel=1e-12)
    assert dirty == clean


def _raising(*args):
    raise AssertionError("a kernel of the other route was read")


@pytest.mark.parametrize("xi", [0.5, 1.0 - 1e-12])
def test_route_b_reads_no_kernel_of_route_a(xi, monkeypatch):
    # route B reads Bessel closed forms alone (i0e and d, through the mesh)
    # and its chains: on fresh caches functional_z for n = 2..5 gives the
    # same bits with the angular pass, the angular rule and route A's
    # Mellin density raising
    clean = [functional_z(n, xi) for n in range(2, 6)]
    for name in ("_angular_kernel_integral", "angular_rule", "_mellin_density"):
        monkeypatch.setattr(bipartite, name, _raising)
    _fresh(monkeypatch, bipartite, "_radial_mesh")
    chains = _fresh(monkeypatch, multipartite, "_chain")
    assert [functional_z(n, xi) for n in range(2, 6)] == clean
    assert chains.cache_info().misses == 4


def test_route_a_reads_no_radial_mesh(monkeypatch):
    # the converse: z_product reads the Mellin density and K and E alone,
    # so with route B's mesh raising it gives the same bits on a fresh density
    clean = [z_product(n, 0.5).product for n in range(1, 6)]
    monkeypatch.setattr(bipartite, "_radial_mesh", _raising)
    _fresh(monkeypatch, multipartite, "_chain")
    density = _fresh(monkeypatch, bipartite, "_mellin_density")
    assert [z_product(n, 0.5).product for n in range(1, 6)] == clean
    assert density.cache_info().misses == 1
