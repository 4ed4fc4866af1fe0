import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings, strategies as st

from minuncert.specfun import (
    _SERIES_DEGREE,
    _gamma_table,
    _i0_series,
    _upper_gamma_cf,
    _upper_gamma_series,
    binom,
    central_binomial,
    dilog,
    ellip_e,
    ellip_k,
    log_bessel_i0,
    scaled_upper_gamma,
    scaled_upper_gammas,
    tabulated_upper_gamma,
    upper_gamma,
)

# scipy's complete elliptic integrals take the parameter m = k^2; ours
# take the modulus k directly.


def test_elliptic_against_scipy():
    for k in (1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999):
        assert ellip_k(k) == pytest.approx(sps.ellipk(k * k), rel=1e-14)
        assert ellip_e(k) == pytest.approx(sps.ellipe(k * k), rel=1e-14)


def test_elliptic_endpoints():
    assert ellip_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellip_e(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellip_e(1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ellip_k(1.0)
    with pytest.raises(ValueError):
        ellip_k(-0.1)


def test_legendre_relation():
    # E(k) K'(k) + E'(k) K(k) - K(k) K'(k) = pi/2 for complementary moduli
    k = 0.6
    kc = math.sqrt(1.0 - k * k)
    lhs = (
        ellip_e(k) * ellip_k(kc)
        + ellip_e(kc) * ellip_k(k)
        - ellip_k(k) * ellip_k(kc)
    )
    assert lhs == pytest.approx(math.pi / 2, rel=1e-14)


@given(st.floats(min_value=1e-6, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_elliptic_agm_matches_scipy(k):
    assert ellip_k(k) == pytest.approx(sps.ellipk(k * k), rel=1e-12)


def test_dilog_values():
    assert dilog(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
    assert dilog(0.5) == pytest.approx(
        math.pi**2 / 12 - 0.5 * math.log(2.0) ** 2, rel=1e-14
    )
    for x in (0.01, 0.25, 0.49, 0.51, 0.6, 0.95):
        assert dilog(x) == pytest.approx(sps.spence(1.0 - x), rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        dilog(-0.1)
    with pytest.raises(ValueError):
        dilog(1.2)


def test_bessel_against_scipy():
    for x in [0.0, 0.1, 1.0, 3.7, 10.0, 25.0, 80.0, 300.0]:
        assert log_bessel_i0(x) == pytest.approx(
            math.log(sps.i0e(x)) + x, rel=1e-13, abs=1e-13
        )


def test_log_bessel_i0_no_overflow():
    # i0(900) overflows in direct evaluation; the log route must not
    v = log_bessel_i0(900.0)
    assert v == pytest.approx(900.0 + math.log(sps.i0e(900.0)), rel=1e-12)


def _gamma_ref(s: float, x: float) -> float:
    # scipy covers s > 0; extend downward with
    # Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s
    if s > 0:
        return float(sps.gammaincc(s, x) * sps.gamma(s))
    if s == 0.0:
        return float(sps.exp1(x))
    return (_gamma_ref(s + 1.0, x) - x**s * math.exp(-x)) / s


@pytest.mark.parametrize("s", [-0.9, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.25, 1.0, 2.5])
def test_upper_gamma(s):
    # the reference recurrence subtracts nearly equal terms for s < 0 at
    # large x (cancellation ~x/|s|), so its own accuracy caps the bar there
    rel = 5e-13 if s >= 0.0 else 1e-10
    for x in (0.05, 0.4, 1.0, 1.49, 1.51, 4.0, 30.0, 200.0):
        ref = _gamma_ref(s, x)
        assert upper_gamma(s, x) == pytest.approx(ref, rel=rel, abs=1e-300)


def test_upper_gamma_array():
    x = np.array([0.1, 1.0, 7.0])
    out = upper_gamma(-0.5, x)
    for i, xi in enumerate(x):
        assert out[i] == pytest.approx(_gamma_ref(-0.5, float(xi)), rel=5e-13)


def test_upper_gamma_rejects_bad_input():
    for gamma in (upper_gamma, tabulated_upper_gamma):
        with pytest.raises(ValueError):
            gamma(-1.0, 0.5)  # negative integer order not supported
        with pytest.raises(ValueError):
            gamma(0.5, 0.0)
        with pytest.raises(ValueError):
            gamma(0.5, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            gamma(10, 1.5)  # the continued fraction loses digits above s = 5


def test_upper_gamma_highest_order():
    for x in np.linspace(1.5, 60.0, 118):
        assert upper_gamma(5.0, x) == pytest.approx(_gamma_ref(5.0, float(x)), rel=1e-13)


@pytest.mark.parametrize("s", [-0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0])
def test_upper_gamma_kernel_orders_dense(s):
    # the orders the ODE kernels use, over most of the range the gamma
    # table takes from the continued fraction
    x = np.geomspace(1.5, 400.0, 601)
    out = upper_gamma(s, x)
    rel = 5e-13 if s >= 0.0 else 1e-10
    ref = np.array([_gamma_ref(s, float(v)) for v in x])
    assert np.all(np.abs(out - ref) <= rel * np.abs(ref))
    # each element retires on its own, so the value cannot depend on
    # which other elements share the array
    cf = _upper_gamma_cf(s, x)
    pieces = np.concatenate([_upper_gamma_cf(s, x[i:i + 7]) for i in range(0, x.size, 7)])
    assert np.array_equal(cf, pieces)


def test_upper_gamma_underflow_returns_zero():
    # from x = 800 on Gamma(s, x) underflows for every accepted order; the
    # continued fraction used to stall at delta = 1 - 2^-53 at such x
    assert upper_gamma(-0.5, 35047705401168.223) == 0.0
    big = np.geomspace(800.0, 1e16, 20001)
    for s in (-0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0, 5.0):
        assert not np.any(upper_gamma(s, big))
        out = upper_gamma(s, np.geomspace(1.5, 800.0, 50001)[:-1])
        assert np.all(np.isfinite(out)) and np.all(out >= 0.0)


# The kernel orders: a = 2, 3/2, 1 and h, then a = 3 (less cancellation
# headroom near x = 1.5, so a looser bound).
_TABLE_BOUNDS = [(-0.5, 1e-13), (-1.0 / 3.0, 1e-13), (0.0, 1e-13), (1.0 / 3.0, 1e-13),
                 (-2.0 / 3.0, 2e-13)]


@pytest.mark.parametrize("s, rel", _TABLE_BOUNDS)
def test_tabulated_upper_gamma_certified(s, rel):
    # off the Chebyshev nodes over the whole range the kernels reach
    rng = np.random.default_rng(5)
    x = np.sort(np.concatenate([np.geomspace(1e-6, 800.0, 4001),
                                rng.uniform(1e-9, 1.5, 1000), rng.uniform(1.5, 400.0, 1000)]))
    table = tabulated_upper_gamma(s, x)
    ref = upper_gamma(s, x)
    live = ref != 0.0
    assert np.all(np.abs(table[live] - ref[live]) <= rel * np.abs(ref[live]))
    assert np.array_equal(table[~live], ref[~live])
    if s >= 0.0:
        # scipy flushes subnormal results to 0, so compare normal values only
        normal = ref >= np.finfo(float).tiny
        scipy_ref = np.array([_gamma_ref(s, float(v)) for v in x[normal]])
        assert np.all(np.abs(table[normal] - scipy_ref) <= 5e-13 * scipy_ref)
    pieces = np.concatenate([tabulated_upper_gamma(s, x[i:i + 7]) for i in range(0, x.size, 7)])
    assert np.array_equal(table, pieces)
    assert tabulated_upper_gamma(s, float(x[17])) == table[17]


@pytest.mark.parametrize("s", [-0.9, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0])
def test_tabulated_upper_gamma_below_series_edge_vs_mpmath(s):
    # on [0.9, 1.5) the series head and tail cancel, by up to ~200x as
    # s -> -1; the table must keep the digits of the reference route there
    import mpmath

    x = np.linspace(0.9, 1.5, 61)[:-1]
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.gammainc(s, mpmath.mpf(float(v)))) for v in x])
    worst_table = np.max(np.abs(tabulated_upper_gamma(s, x) / ref - 1.0))
    worst_reference = np.max(np.abs(upper_gamma(s, x) / ref - 1.0))
    assert worst_table <= 2.5 * worst_reference


@pytest.mark.parametrize("s", [-0.99, -0.9, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 1.0 / 3.0,
                               0.5, 1.0, 2.0, 3.5, 5.0])
def test_series_column_cut_at_rounding(s):
    # the series column is summed to degree 14: every stored coefficient
    # past it is the transform's rounding, not the function
    column = _gamma_table(s)[:, 0]
    assert _SERIES_DEGREE == 14
    assert np.max(np.abs(column[_SERIES_DEGREE + 1:])) <= 1e-15 * abs(column[0])


def test_scaled_upper_gammas_one_walk():
    # several orders from one table walk are bit for bit one call per
    # order, on arrays and on scalars
    x = np.concatenate([np.geomspace(1e-9, 800.0, 301), [1.5, 768.0]])
    e = np.exp(-x)
    orders = (-1.0 / 3.0, 1.0 / 3.0, -0.5)
    for atom, s in zip(scaled_upper_gammas(orders, x, e), orders):
        assert atom.tobytes() == scaled_upper_gamma(s, x, e).tobytes()
    pair = scaled_upper_gammas(orders[:2], 0.7, math.exp(-0.7))
    assert pair == tuple(scaled_upper_gamma(s, 0.7, math.exp(-0.7)) for s in orders[:2])
    with pytest.raises(ValueError):
        scaled_upper_gammas((0.5, -1.0), x, e)
    with pytest.raises(ValueError):
        scaled_upper_gammas((0.5,), np.array([1.0, 0.0]), np.ones(2))


@pytest.mark.parametrize("s", [-0.5, 1.0 / 3.0])
def test_tabulated_upper_gamma_panel_edges(s):
    # the series edge 1.5, every geometric panel edge, and the end of the
    # table at 768, where tabulated_upper_gamma hands over to upper_gamma
    # and scaled_upper_gamma turns 0
    for edge in 1.5 * 2.0 ** np.arange(10):
        x = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
        table = tabulated_upper_gamma(s, x)
        ref = upper_gamma(s, x)
        assert np.all(np.abs(table - ref) <= 1e-13 * ref)
        # no jump across the edge beyond the function's own change
        assert abs(table[2] - table[0]) <= 1e-13 * table[1] + abs(ref[2] - ref[0])
        atom = scaled_upper_gamma(s, x, np.exp(-x))
        atom_ref = x**-s * ref
        assert np.all(np.abs(atom - atom_ref) <= 1e-13 * atom_ref)
    assert scaled_upper_gamma(s, 768.0, math.exp(-768.0)) == 0.0


@pytest.mark.parametrize("s, rel", _TABLE_BOUNDS)
def test_scaled_upper_gamma_certified(s, rel):
    # the kernel atom x^-s Gamma(s, x) against the reference route, off the
    # Chebyshev nodes over [1e-9, 800]
    rng = np.random.default_rng(7)
    x = np.sort(np.concatenate([np.geomspace(1e-9, 800.0, 4001), rng.uniform(1e-9, 1.5, 1000),
                                rng.uniform(1.5, 768.0, 2000)]))
    e = np.exp(-x)
    atom = scaled_upper_gamma(s, x, e)
    ref = x**-s * upper_gamma(s, x)
    tiny = np.finfo(float).tiny
    normal = (ref >= tiny) & (e >= tiny)
    assert np.count_nonzero(normal) > 6000
    assert np.all(np.abs(atom[normal] - ref[normal]) <= rel * ref[normal])
    assert np.all(atom >= 0.0)
    assert not np.any(atom[x >= 768.0])
    pieces = np.concatenate([scaled_upper_gamma(s, x[i:i + 7], e[i:i + 7])
                             for i in range(0, x.size, 7)])
    assert np.array_equal(atom, pieces)
    for i in (17, 5000, 6800):
        assert scaled_upper_gamma(s, float(x[i]), float(e[i])) == atom[i]


def test_iteration_caps_raise():
    # the expansions are only used where they converge (I0 series up to
    # the crossover 12, the continued fraction from x = 1.5, the gamma
    # power series below it); outside
    # that range the step cap must raise instead of returning a value
    with pytest.raises(RuntimeError):
        _i0_series(np.array([100.0]))
    with pytest.raises(RuntimeError):
        _upper_gamma_cf(-0.5, np.array([0.01]))
    with pytest.raises(RuntimeError):
        _upper_gamma_series(-0.5, np.array([60.0]))


def test_binomials_exact():
    assert binom(12, 5) == math.comb(12, 5)
    assert binom(40, 20) == math.comb(40, 20)
    assert central_binomial(17) == math.comb(34, 17)
    assert binom(5, 9) == 0

